package cache

// Probe reports whether the line containing addr is present, without
// touching LRU state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.lookup(addr)
	for _, w := range set {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}
