package timeline

// Dropped is the number of spans evicted by the cap.
func (c *SpanCollector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
