package telemetry

import "sync"

// Event is one structured invocation-lifecycle event. The sequence number
// is assigned at append time and increases without gaps, so a consumer
// polling Since(lastSeq) can detect loss when the ring overwrote entries
// it had not yet read (returned events then start above lastSeq+1).
type Event struct {
	// Seq is the gap-free append ordinal (see the loss-detection note
	// above).
	Seq int64 `json:"seq"`
	// AtMs is the cluster-clock offset in milliseconds (virtual in sim
	// mode, wall in live mode).
	AtMs float64 `json:"at_ms"`
	// Type is the lifecycle event kind ("submitted", "dispatched", ...).
	Type string `json:"type"`
	// Job is the invocation's job id (0 for cluster-level events).
	Job int64 `json:"job,omitempty"`
	// Function names the invoked workload function.
	Function string `json:"function,omitempty"`
	// Worker names the worker involved, when one is.
	Worker string `json:"worker,omitempty"`
	// Attempt is the retry ordinal the event belongs to (0 = first).
	Attempt int `json:"attempt"`
	// Detail carries event-specific context (fault cause, boot kind, ...).
	Detail string `json:"detail,omitempty"`
}

// EventLog is a fixed-capacity ring buffer of events. Appends never block
// and never grow memory: the oldest events are overwritten. Safe for
// concurrent use; a nil *EventLog no-ops.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next int64 // sequence number of the next append
}

// NewEventLog returns an empty ring holding up to capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{ring: make([]Event, capacity)}
}

// Append stamps the event's sequence number and stores it, overwriting
// the oldest entry when full. It returns the assigned sequence number.
func (l *EventLog) Append(ev Event) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	slot := l.slotLocked()
	ev.Seq = slot.Seq
	*slot = ev
	l.mu.Unlock()
	return ev.Seq
}

// slotLocked claims the ring slot of the next sequence number, stamps the
// number into it and returns it for the caller to fill in place; the
// slot's other fields still hold the event it overwrites. Caller holds
// l.mu until the slot is filled.
func (l *EventLog) slotLocked() *Event {
	slot := &l.ring[l.next%int64(len(l.ring))]
	slot.Seq = l.next
	l.next++
	return slot
}

// Since returns up to max events with sequence numbers strictly greater
// than seq, oldest first (pass seq = -1 for everything retained; max <= 0
// means no limit). Events already overwritten are silently absent.
func (l *EventLog) Since(seq int64, max int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceLocked(seq, max)
}

// sinceLocked implements Since under l.mu.
func (l *EventLog) sinceLocked(seq int64, max int) []Event {
	oldest := l.next - int64(len(l.ring))
	if oldest < 0 {
		oldest = 0
	}
	from := seq + 1
	if from < oldest {
		from = oldest
	}
	if from >= l.next {
		return nil
	}
	n := l.next - from
	if max > 0 && n > int64(max) {
		n = int64(max)
	}
	out := make([]Event, 0, n)
	for s := from; s < from+n; s++ {
		out = append(out, l.ring[s%int64(len(l.ring))])
	}
	return out
}

// gapLocked returns how many events with sequence numbers strictly
// greater than seq the ring has already overwritten — the precise count a
// consumer who last saw seq has lost, rather than the seq-jump inference
// it would otherwise make. Caller holds l.mu.
func (l *EventLog) gapLocked(seq int64) int64 {
	oldest := l.next - int64(len(l.ring))
	if oldest < 0 {
		oldest = 0
	}
	lost := oldest - (seq + 1)
	if lost < 0 {
		return 0
	}
	return lost
}

// Page atomically reads one poll's worth of state: the events Since(seq,
// max) would return, how many events past seq the ring overwrote (pass
// seq = -1 to count all loss ever), and the sequence number of the most
// recent event (-1 when nothing has been appended) — all under one lock
// acquisition, so a concurrent appender cannot make the three disagree (a
// gap computed after a separate Since call could blame events the page
// actually delivered).
func (l *EventLog) Page(seq int64, max int) (events []Event, gap, lastSeq int64) {
	if l == nil {
		return nil, 0, -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceLocked(seq, max), l.gapLocked(seq), l.next - 1
}
