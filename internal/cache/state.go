package cache

import "galsim/internal/snapshot"

// AppendState appends the cache's snapshot section: the way count, bitmaps
// of the valid, dirty and prefetched ways, the tag and LRU stamp of each
// valid way in index order, the LRU tick and the counters. A way is never
// invalidated once filled, so an invalid way is all zero and costs one bit.
func (c *Cache) AppendState(e *snapshot.Encoder) {
	e.Uvarint(uint64(len(c.ways)))
	e.Bitmap(len(c.ways), func(i int) bool { return c.ways[i].valid })
	e.Bitmap(len(c.ways), func(i int) bool { return c.ways[i].dirty })
	e.Bitmap(len(c.ways), func(i int) bool { return c.ways[i].prefetched })
	for i := range c.ways {
		if w := &c.ways[i]; w.valid {
			e.Uvarint(w.tag)
			e.Uvarint(w.lru)
		}
	}
	e.Uvarint(c.tick)
	for _, v := range [...]uint64{c.stats.Accesses, c.stats.Hits, c.stats.Misses, c.stats.Writebacks} {
		e.Uvarint(v)
	}
}

// RestoreState reads a section AppendState wrote into a cache built with
// the same geometry. Failures are recorded in d.
func (c *Cache) RestoreState(d *snapshot.Decoder) {
	if n := d.Uvarint(); n != uint64(len(c.ways)) {
		d.Failf("cache %q: restored way count %d does not match geometry (%d ways)", c.cfg.Name, n, len(c.ways))
		return
	}
	valid, dirty, pf := d.Bitmap(len(c.ways)), d.Bitmap(len(c.ways)), d.Bitmap(len(c.ways))
	for i := range c.ways {
		w := way{valid: snapshot.Bit(valid, i), dirty: snapshot.Bit(dirty, i), prefetched: snapshot.Bit(pf, i)}
		if w.valid {
			w.tag, w.lru = d.Uvarint(), d.Uvarint()
		} else if w.dirty || w.prefetched {
			d.Failf("cache %q: restored way %d is dirty or prefetched but not valid", c.cfg.Name, i)
		}
		c.ways[i] = w
	}
	c.tick = d.Uvarint()
	for _, v := range [...]*uint64{&c.stats.Accesses, &c.stats.Hits, &c.stats.Misses, &c.stats.Writebacks} {
		*v = d.Uvarint()
	}
}

// AppendState appends the hierarchy's snapshot section: each cache level's,
// then main memory's access count.
func (h *Hierarchy) AppendState(e *snapshot.Encoder) {
	h.L1I.AppendState(e)
	h.L1D.AppendState(e)
	h.L2.AppendState(e)
	e.Uvarint(h.Mem.accesses)
}

// RestoreState reads a section AppendState wrote into a hierarchy of the
// same geometry. Failures are recorded in d.
func (h *Hierarchy) RestoreState(d *snapshot.Decoder) {
	h.L1I.RestoreState(d)
	h.L1D.RestoreState(d)
	h.L2.RestoreState(d)
	h.Mem.accesses = d.Uvarint()
}
