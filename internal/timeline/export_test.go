package timeline

// Dropped is the number of spans lost to the cap.
func (c *SpanCollector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
