package disambig

import (
	"sync"

	"repro/internal/memo"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
)

// Cache is the shared, concurrency-safe memoization layer of the semantic
// hot path. One Cache is owned by a core.Framework and shared by every
// disambiguator the framework creates — all batch workers and all
// intra-document node workers hit the same memos, so a corpus with
// repeated vocabulary pays for each Sim(c1, c2) evaluation, each max over
// a context lemma's senses, and each semantic-network sphere walk once,
// not once per document.
//
// Every memo is a memo.Memo keyed by dense int32 ids packed into
// integers — a warm lookup hashes no strings and allocates nothing.
//
// Invariants: the semantic network is immutable after Build, so every
// memoized value is a pure function of its key and never invalidates.
// Cached sphere.Vector values are handed out shared — callers must treat
// them as read-only (all in-tree consumers only read them).
type Cache struct {
	net *semnet.Network
	sim *simmeasure.Measure

	maxes *memo.Memo[uint64, float64]        // (sense, label) -> max_j Sim(sense, s_j)
	vecs  *memo.Memo[uint64, sphere.Vector]  // single-sense semantic-network vectors
	pairs *memo.Memo[pairKey, sphere.Vector] // compound-label combined vectors (Eq. 12)

	// scratch pools the dense BFS/vector buffers used to fill vector-memo
	// misses, so a miss costs one sphere walk plus one Clone, not a fresh
	// set of network-sized arrays.
	scratch sync.Pool // *sphere.ConceptScratch
}

// pairKey identifies a combined vector: packed canonical dense pair + radius.
type pairKey struct {
	pq uint64
	d  int32
}

// NewCache returns an empty cache over net with the given similarity
// weights (normalized as by simmeasure.New).
func NewCache(net *semnet.Network, w simmeasure.Weights) *Cache {
	c := &Cache{
		net:   net,
		sim:   simmeasure.New(net, w),
		maxes: memo.New[uint64, float64](memo.Mix64),
		vecs:  memo.New[uint64, sphere.Vector](memo.Mix64),
		pairs: memo.New[pairKey, sphere.Vector](func(k pairKey) uint64 {
			return memo.Mix64(k.pq ^ uint64(k.d))
		}),
	}
	c.scratch.New = func() any { return new(sphere.ConceptScratch) }
	return c
}

// Network returns the semantic network the cache memoizes over.
func (c *Cache) Network() *semnet.Network { return c.net }

// Measure returns the shared pairwise-similarity measure.
func (c *Cache) Measure() *simmeasure.Measure { return c.sim }

// Sim returns the memoized combined similarity of the pair.
func (c *Cache) Sim(a, b semnet.ConceptID) float64 { return c.sim.Sim(a, b) }

// MaxSim returns max_j Sim(s, senses[j]) (0 for no senses) — the inner
// max of concept scoring (Definition 8) — memoized per (s, label). senses
// must be the network's sense list of label (semnet.SensesLabel), so the
// pair names the value. Max is order-independent, so the memoized value
// equals the direct loop bit for bit.
func (c *Cache) MaxSim(s semnet.DenseID, label int32, senses []semnet.DenseID) float64 {
	key := semnet.PairKey(s, label)
	if v, ok := c.maxes.Get(key); ok {
		return v
	}
	best := 0.0
	for _, sj := range senses {
		if v := c.sim.SimDense(s, sj); v > best {
			best = v
		}
	}
	c.maxes.Put(key, best)
	return best
}

// ConceptVector returns the memoized semantic-network context vector
// V_d(s) of a sense (Definition 10); unknown ids yield the empty vector.
// The returned vector is shared: read-only.
func (c *Cache) ConceptVector(id semnet.ConceptID, d int) sphere.Vector {
	dc, ok := c.net.Dense(id)
	if !ok {
		return sphere.Vector{}
	}
	return c.ConceptVectorDense(dc, d)
}

// ConceptVectorDense is ConceptVector keyed by dense id.
func (c *Cache) ConceptVectorDense(id semnet.DenseID, d int) sphere.Vector {
	key := semnet.PairKey(id, int32(d))
	if v, ok := c.vecs.Get(key); ok {
		return v
	}
	s := c.scratch.Get().(*sphere.ConceptScratch)
	v := sphere.ConceptVectorInto(c.net, id, d, s).Clone()
	c.scratch.Put(s)
	c.vecs.Put(key, v)
	return v
}

// PairVector returns the memoized combined concept vector V_d(s_p, s_q) of
// a compound-label candidate pair (Eq. 12); unknown ids yield the empty
// vector. The returned vector is shared: read-only.
func (c *Cache) PairVector(p, q semnet.ConceptID, d int) sphere.Vector {
	dp, okp := c.net.Dense(p)
	dq, okq := c.net.Dense(q)
	if !okp || !okq {
		return sphere.Vector{}
	}
	return c.PairVectorDense(dp, dq, d)
}

// PairVectorDense is PairVector keyed by the canonical dense pair. The
// union underlying the vector is symmetric in p and q, so the pair is
// canonicalized to dense-ascending order for both the key and the
// computation — cached and bypass paths fold weights in one order.
func (c *Cache) PairVectorDense(p, q semnet.DenseID, d int) sphere.Vector {
	if q < p {
		p, q = q, p
	}
	key := pairKey{pq: semnet.PairKey(p, q), d: int32(d)}
	if v, ok := c.pairs.Get(key); ok {
		return v
	}
	s := c.scratch.Get().(*sphere.ConceptScratch)
	v := sphere.CombinedConceptVectorInto(c.net, p, q, d, s).Clone()
	c.scratch.Put(s)
	c.pairs.Put(key, v)
	return v
}

// CacheStats is a point-in-time snapshot of the shared cache counters, for
// observability and effectiveness tests: exact in serial runs,
// approximate snapshots under concurrency. Vector counts cover both the
// single-sense and the compound-pair memo.
type CacheStats struct {
	SimHits, SimMisses       uint64
	VectorHits, VectorMisses uint64
	MaxHits, MaxMisses       uint64
}

// Stats reports hit/miss counts since construction.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	st.SimHits, st.SimMisses = c.sim.Stats()
	st.MaxHits, st.MaxMisses = c.maxes.Stats()
	vh, vm := c.vecs.Stats()
	ph, pm := c.pairs.Stats()
	st.VectorHits, st.VectorMisses = vh+ph, vm+pm
	return st
}
