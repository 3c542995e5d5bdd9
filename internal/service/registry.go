package service

import (
	"fmt"
	"sort"
	"sync"
)

// Bounds of each upload registry, in entries and in total stored bytes:
// uploads are kept for the server's lifetime and are unauthenticated, so
// both axes need a ceiling (1024 one-MiB specs would otherwise pin a
// gigabyte of heap).
const (
	maxRegistryEntries = 1024
	maxRegistryBytes   = 16 << 20
)

// registry is a bounded, concurrency-safe name → value map: the uploaded
// workloads and the uploaded machines each live in one.
type registry[T any] struct {
	// full is the error put returns when a value does not fit.
	full error

	mu      sync.RWMutex
	entries map[string]registryEntry[T]
	bytes   int // total accounted size of all entries
}

// registryEntry is one value plus its accounted size.
type registryEntry[T any] struct {
	val  T
	size int
}

// newRegistry builds an empty registry of custom <what>s.
func newRegistry[T any](what string) *registry[T] {
	return &registry[T]{
		full: fmt.Errorf("custom %s registry is full (%d entries / %d bytes max)",
			what, maxRegistryEntries, maxRegistryBytes),
		entries: map[string]registryEntry[T]{},
	}
}

// get returns the value registered under name.
func (r *registry[T]) get(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ent, ok := r.entries[name]
	return ent.val, ok
}

// put stores val, accounted at size bytes, under name, replacing any entry
// of that name; replaced reports whether one existed. It returns r.full,
// storing nothing, when the registry would exceed its bounds.
func (r *registry[T]) put(name string, val T, size int) (replaced bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, exists := r.entries[name]
	total := r.bytes - old.size + size
	if (!exists && len(r.entries) >= maxRegistryEntries) || total > maxRegistryBytes {
		return false, r.full
	}
	r.entries[name] = registryEntry[T]{val: val, size: size}
	r.bytes = total
	return exists, nil
}

// len returns the number of registered values.
func (r *registry[T]) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// values returns every registered value, in no particular order.
func (r *registry[T]) values() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]T, 0, len(r.entries))
	for _, ent := range r.entries {
		out = append(out, ent.val)
	}
	return out
}

// names returns the registered names, sorted.
func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
