package simmeasure

import (
	"math/rand"
	"testing"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

var benchPairs = [][2]semnet.ConceptID{
	{"actor.n.01", "star.n.02"},
	{"cast.n.01", "picture.n.02"},
	{"book.n.01", "author.n.01"},
	{"state.n.01", "city.n.01"},
	{"head.n.01", "line.n.08"},
}

func BenchmarkEdge(b *testing.B) {
	net := wordnet.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		Edge(net, p[0], p[1])
	}
}

func BenchmarkNodeIC(b *testing.B) {
	net := wordnet.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		NodeIC(net, p[0], p[1])
	}
}

func BenchmarkGloss(b *testing.B) {
	net := wordnet.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		Gloss(net, p[0], p[1])
	}
}

// missPairs returns a fixed seeded sample of dense pairs of the generated
// 5k lexicon, the Sim misses of the cold-lexicon benchmark.
func missPairs(tb testing.TB) (*Measure, [][2]semnet.DenseID) {
	tb.Helper()
	net := generated5k(tb)
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]semnet.DenseID, 1024)
	for i := range pairs {
		pairs[i] = [2]semnet.DenseID{semnet.DenseID(rng.Intn(net.Len())), semnet.DenseID(rng.Intn(net.Len()))}
	}
	return New(net, EqualWeights()), pairs
}

// BenchmarkSimMiss measures the Sim miss kernel (LCS, edge, node and gloss
// measures of one pair) without the memo.
func BenchmarkSimMiss(b *testing.B) {
	m, pairs := missPairs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		simSink = m.SimDirectDense(p[0], p[1])
	}
}

// simSink keeps the compiler from discarding benchmarked results.
var simSink float64

// TestSimMissAllocationFree pins that the miss kernel does not allocate:
// LCS is a merge-join of precomputed ancestor sets and the gloss overlap
// runs on interned ids in stack buffers.
func TestSimMissAllocationFree(t *testing.T) {
	m, pairs := missPairs(t)
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range pairs {
			m.SimDirectDense(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Errorf("Sim miss sweep allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkCombinedCached(b *testing.B) {
	net := wordnet.Default()
	m := New(net, EqualWeights())
	for _, p := range benchPairs {
		m.Sim(p[0], p[1]) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		m.Sim(p[0], p[1])
	}
}

// warmMeasure returns a Measure over the embedded lexicon with every
// pairwise similarity of the sample precomputed, plus the sampled ids in
// both string and dense form.
func warmMeasure(tb testing.TB, sample int) (*Measure, []semnet.ConceptID, []semnet.DenseID) {
	tb.Helper()
	net := wordnet.Default()
	ids := net.Concepts()
	if len(ids) > sample {
		ids = ids[:sample]
	}
	dense := make([]semnet.DenseID, len(ids))
	for i, id := range ids {
		d, ok := net.Dense(id)
		if !ok {
			tb.Fatalf("no dense id for %s", id)
		}
		dense[i] = d
	}
	m := New(net, EqualWeights())
	for _, a := range ids {
		for _, b := range ids {
			m.Sim(a, b)
		}
	}
	return m, ids, dense
}

// TestWarmSimLookupAllocationFree pins the shard-fix goal: once a pair is
// cached, Sim and SimDense perform zero heap allocations per lookup — the
// packed int-pair key and two-multiply shard mix replaced the per-lookup
// maphash hasher and string conversions of the string-keyed cache.
func TestWarmSimLookupAllocationFree(t *testing.T) {
	m, ids, dense := warmMeasure(t, 40)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range ids {
			for j := range ids {
				m.Sim(ids[i], ids[j])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm Sim sweep allocates %.1f times, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		for i := range dense {
			for j := range dense {
				m.SimDense(dense[i], dense[j])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm SimDense sweep allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkSimDenseWarm measures a warm cache hit on the dense fast path
// used by the disambiguation inner loop.
func BenchmarkSimDenseWarm(b *testing.B) {
	m, _, dense := warmMeasure(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SimDense(dense[i%len(dense)], dense[(i*7+3)%len(dense)])
	}
}
