package service

import (
	"fmt"
	"testing"
)

// TestRegistryBounds: a registry refuses a new name past its entry bound
// and any put past its byte bound, while a replacement is accounted at its
// new size in place of the old one.
func TestRegistryBounds(t *testing.T) {
	r := newRegistry[int]("thing")
	for i := 0; i < maxRegistryEntries; i++ {
		if _, err := r.put(fmt.Sprint(i), i, 1); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if _, err := r.put("one-too-many", 0, 1); err != r.full {
		t.Fatalf("put past the entry bound: err = %v, want %v", err, r.full)
	}
	// Replacing an existing name needs no new slot; growing it to the
	// whole byte budget does not fit beside the other entries.
	if replaced, err := r.put("0", 7, 2); err != nil || !replaced {
		t.Fatalf("replacement: replaced=%v err=%v", replaced, err)
	}
	if _, err := r.put("0", 7, maxRegistryBytes); err != r.full {
		t.Fatalf("put past the byte bound: err = %v, want %v", err, r.full)
	}
	if v, ok := r.get("0"); !ok || v != 7 {
		t.Fatalf("get(0) = %v, %v; want the replacement 7", v, ok)
	}
	if r.len() != maxRegistryEntries || len(r.values()) != maxRegistryEntries || len(r.names()) != maxRegistryEntries {
		t.Fatalf("len %d, values %d, names %d; want %d each", r.len(), len(r.values()), len(r.names()), maxRegistryEntries)
	}
	if want := "custom thing registry is full (1024 entries / 16777216 bytes max)"; r.full.Error() != want {
		t.Errorf("full error %q, want %q", r.full, want)
	}
}
