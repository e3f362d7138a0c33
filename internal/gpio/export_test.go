package gpio

// CauseCount returns how many distinct causes the controller's table holds.
func (c *Controller) CauseCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.causes.Len()
}
