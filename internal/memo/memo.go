// Package memo provides the one memoization primitive of the scoring
// core: a sharded, read-mostly map from a key to a value that is a pure
// function of it, with hit/miss counters that do not contend.
package memo

import (
	"sync"
	"sync/atomic"
)

// shardCount is the number of shards. Sharding keeps many disambiguation
// goroutines from serializing on one mutex; 64 shards are plenty for the
// worker counts a single host runs.
const shardCount = 64

// pad keeps a shard's counters on a cache line of their own: 64 bytes on
// each side isolate them from every other field whatever the alignment.
type pad [64]byte

// shard is organized for a read-dominated workload: lookups on the clean
// map are lock-free (one atomic pointer load, no read-modify-write).
// Writers insert into the small mutex-guarded dirty map and periodically
// merge it into a fresh clean map swapped in atomically; the publication
// ordering of Store/Load makes the merged map safely immutable to readers.
type shard[K comparable, V any] struct {
	clean atomic.Pointer[map[K]V] // read-only; never mutated after Store
	mu    sync.Mutex
	dirty map[K]V // entries since the last merge

	_            pad
	hits, misses atomic.Uint64
	_            pad
}

// Memo is a concurrency-safe memo. Values must be pure functions of their
// keys: racing inserts of one key then write the same value, so duplicated
// computation under contention is harmless and entries never invalidate.
type Memo[K comparable, V any] struct {
	hash   func(K) uint64
	shards [shardCount]shard[K, V]
}

// New returns an empty memo whose shard is chosen by hash(key).
func New[K comparable, V any](hash func(K) uint64) *Memo[K, V] {
	m := &Memo[K, V]{hash: hash}
	for i := range m.shards {
		m.shards[i].dirty = make(map[K]V)
	}
	return m
}

// Get returns the memoized value of k and counts a hit, or counts a miss
// and returns false. It is lock-free once the entry has been merged into
// its shard's clean map, and takes the shard mutex while it still sits
// in dirty.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	sh := &m.shards[m.hash(k)%shardCount]
	if p := sh.clean.Load(); p != nil {
		if v, ok := (*p)[k]; ok {
			sh.hits.Add(1)
			return v, true
		}
	}
	sh.mu.Lock()
	v, ok := sh.dirty[k]
	sh.mu.Unlock()
	if ok {
		sh.hits.Add(1)
	} else {
		sh.misses.Add(1)
	}
	return v, ok
}

// Put records the value of k. Dirty is merged into a new clean map once
// it outgrows a quarter of clean (capped so entries reach the lock-free
// path promptly even in huge shards), so each entry is copied an
// amortized-constant number of times.
func (m *Memo[K, V]) Put(k K, v V) {
	sh := &m.shards[m.hash(k)%shardCount]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.dirty[k] = v
	n := 0
	if p := sh.clean.Load(); p != nil {
		n = len(*p)
	}
	if len(sh.dirty) < 1+n/4 && len(sh.dirty) < 1024 {
		return
	}
	merged := make(map[K]V, n+len(sh.dirty))
	if p := sh.clean.Load(); p != nil {
		for key, val := range *p {
			merged[key] = val
		}
	}
	for key, val := range sh.dirty {
		merged[key] = val
	}
	sh.clean.Store(&merged)
	clear(sh.dirty) // reuse its buckets: dirty refills at the same rate
}

// Stats sums the per-shard hit and miss counters: exact in serial runs,
// a point-in-time approximation under concurrency.
func (m *Memo[K, V]) Stats() (hits, misses uint64) {
	for i := range m.shards {
		hits += m.shards[i].hits.Load()
		misses += m.shards[i].misses.Load()
	}
	return hits, misses
}

// Mix64 is the 64-bit finalizer of MurmurHash3 (two multiplies, three
// xor-shifts): the shard hash for integer keys, such as packed pairs of
// dense concept ids.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
