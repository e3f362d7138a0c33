package sim

// Pending returns the number of not-yet-cancelled events in the queue:
// every heap entry but the tombstones.
func (e *Engine) Pending() int { return len(e.queue) - e.tombs }
