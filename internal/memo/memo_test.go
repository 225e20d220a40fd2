package memo

import (
	"sync"
	"testing"
)

// TestGetPutCountsExactly checks that in a serial run every Get counts
// exactly one hit or one miss, summed across shards, and that values
// survive the dirty-to-clean merges their inserts trigger.
func TestGetPutCountsExactly(t *testing.T) {
	m := New[uint64, int](Mix64)
	const n = 5000 // enough to force several merges in every shard
	for k := uint64(0); k < n; k++ {
		if _, ok := m.Get(k); ok {
			t.Fatalf("key %d present before Put", k)
		}
		m.Put(k, int(k)*3)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := m.Get(k); !ok || v != int(k)*3 {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", k, v, ok, k*3)
		}
	}
	if hits, misses := m.Stats(); hits != n || misses != n {
		t.Errorf("Stats() = %d hits, %d misses; want %d, %d", hits, misses, n, n)
	}
}

// TestStructKeys covers a non-integer key with its own shard hash.
func TestStructKeys(t *testing.T) {
	type key struct {
		a uint64
		b int32
	}
	m := New[key, string](func(k key) uint64 { return Mix64(k.a ^ uint64(k.b)) })
	m.Put(key{1, 2}, "x")
	if v, ok := m.Get(key{1, 2}); !ok || v != "x" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := m.Get(key{1, 3}); ok {
		t.Fatal("distinct key must miss")
	}
}

// TestConcurrentReadersAndWriters races readers against writers whose
// inserts keep merging dirty maps into fresh clean maps. Run under -race:
// every value read must be the one its key determines, and once every
// writer is done every key must be present.
func TestConcurrentReadersAndWriters(t *testing.T) {
	m := New[uint64, uint64](Mix64)
	const (
		writers = 4
		readers = 4
		keys    = 4000
	)
	value := func(k uint64) uint64 { return k*k + 1 }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Writers overlap on every key, as racing misses of one key do.
			for i := 0; i < keys; i++ {
				k := uint64((i*7 + w*13) % keys)
				m.Put(k, value(k))
			}
		}(w)
	}
	errs := make(chan uint64, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := uint64(r); k < keys; k += 3 {
					if v, ok := m.Get(k); ok && v != value(k) {
						errs <- k
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for k := range errs {
		t.Errorf("key %d read a value it does not determine", k)
	}
	for k := uint64(0); k < keys; k++ {
		if v, ok := m.Get(k); !ok || v != value(k) {
			t.Fatalf("after the writers: Get(%d) = %d, %v", k, v, ok)
		}
	}
}
