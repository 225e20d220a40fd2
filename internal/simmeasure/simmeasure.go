// Package simmeasure implements the three families of semantic similarity
// measures used by XSDF's concept-based disambiguation (Definition 9):
//
//   - Sim_Edge — the edge-based measure of Wu & Palmer [59];
//   - Sim_Node — the node-based information-content measure of Lin [27],
//     which requires the weighted network S̄N (concept frequencies);
//   - Sim_Gloss — a normalized extension of the extended gloss overlap of
//     Banerjee & Pedersen [6].
//
// The combined measure is their weighted sum with w_Edge+w_Node+w_Gloss = 1.
package simmeasure

import (
	"fmt"
	"math"

	"repro/internal/memo"
	"repro/internal/semnet"
)

// Weights holds the non-negative combination weights of Definition 9.
type Weights struct {
	Edge  float64
	Node  float64
	Gloss float64
}

// EqualWeights returns the configuration used in the paper's experiments
// (w_Edge = w_Node = w_Gloss = 1/3; footnote 12).
func EqualWeights() Weights { return Weights{Edge: 1.0 / 3, Node: 1.0 / 3, Gloss: 1.0 / 3} }

// EdgeOnly, NodeOnly, and GlossOnly are single-measure configurations used
// by the ablation benchmarks.
func EdgeOnly() Weights  { return Weights{Edge: 1} }
func NodeOnly() Weights  { return Weights{Node: 1} }
func GlossOnly() Weights { return Weights{Gloss: 1} }

// Validate checks the Definition 9 constraints: weights non-negative and
// summing to 1 (within floating-point tolerance).
func (w Weights) Validate() error {
	if w.Edge < 0 || w.Node < 0 || w.Gloss < 0 {
		return fmt.Errorf("simmeasure: negative weight %+v", w)
	}
	if s := w.Edge + w.Node + w.Gloss; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("simmeasure: weights sum to %g, want 1", s)
	}
	return nil
}

// Normalize rescales the weights to sum to 1, leaving all-zero weights as
// the equal configuration.
func (w Weights) Normalize() Weights {
	s := w.Edge + w.Node + w.Gloss
	if s <= 0 {
		return EqualWeights()
	}
	return Weights{Edge: w.Edge / s, Node: w.Node / s, Gloss: w.Gloss / s}
}

// Measure evaluates combined semantic similarity between concepts of one
// network. It memoizes pairwise scores, which matters because
// disambiguation evaluates the same sense pairs many times across context
// nodes — and, when one Measure is shared by a whole batch run, across
// documents.
//
// The memo is keyed by packed dense int32 concept pairs (canonical
// dense-ascending order): a warm lookup allocates nothing, hashes no
// strings, and takes Go's fast uint64 map-access path.
//
// Measure is safe for concurrent use: memoized values are pure functions
// of the immutable network, so duplicated computation under contention is
// harmless.
type Measure struct {
	net     *semnet.Network
	weights Weights
	memo    *memo.Memo[uint64, float64]
}

// New returns a Measure over net with the given (normalized) weights.
func New(net *semnet.Network, w Weights) *Measure {
	return &Measure{
		net:     net,
		weights: w.Normalize(),
		memo:    memo.New[uint64, float64](memo.Mix64),
	}
}

// Weights returns the active combination weights.
func (m *Measure) Weights() Weights { return m.weights }

// Network returns the network the measure scores over.
func (m *Measure) Network() *semnet.Network { return m.net }

// Sim returns the combined similarity Sim(c1, c2, S̄N) in [0, 1]
// (Definition 9). Identical concepts score 1, ids outside the network 0.
// Sim is symmetric.
func (m *Measure) Sim(c1, c2 semnet.ConceptID) float64 {
	return atEdge(m.net, c1, c2, m.SimDense)
}

// SimDense is Sim over dense ids — the scoring core's entry point. The
// pair is canonicalized to dense-ascending order for both the memo key
// and the (order-sensitive, tie-break-wise) computation, so SimDense,
// Sim, and SimDirect agree bit for bit in every argument order.
func (m *Measure) SimDense(d1, d2 semnet.DenseID) float64 {
	if d1 == d2 {
		return 1
	}
	if d2 < d1 {
		d1, d2 = d2, d1
	}
	key := semnet.PairKey(d1, d2)
	if v, ok := m.memo.Get(key); ok {
		return v
	}
	v := m.simComputeDense(d1, d2)
	m.memo.Put(key, v)
	return v
}

// SimDirect computes the combined similarity without consulting or filling
// the cache — the bypass path differential tests compare Sim against. It
// evaluates the pair in canonical order, exactly as Sim caches it, so
// Sim(a, b) == SimDirect(a, b) == SimDirect(b, a) bit for bit.
func (m *Measure) SimDirect(c1, c2 semnet.ConceptID) float64 {
	return atEdge(m.net, c1, c2, m.SimDirectDense)
}

// SimDirectDense is SimDirect over dense ids (the bypass path of the
// dense scoring core). It does not allocate.
func (m *Measure) SimDirectDense(d1, d2 semnet.DenseID) float64 {
	if d1 == d2 {
		return 1
	}
	if d2 < d1 {
		d1, d2 = d2, d1
	}
	return m.simComputeDense(d1, d2)
}

// atEdge evaluates a dense measure at the string API edge: identical
// concepts score 1, and ids outside the network 0 (they share no ancestor
// and have no gloss, so every component measure scores them 0).
func atEdge(net *semnet.Network, c1, c2 semnet.ConceptID, f func(d1, d2 semnet.DenseID) float64) float64 {
	if c1 == c2 {
		return 1
	}
	d1, ok1 := net.Dense(c1)
	d2, ok2 := net.Dense(c2)
	if !ok1 || !ok2 {
		return 0
	}
	return f(d1, d2)
}

// simComputeDense evaluates the weighted combination for a canonical
// (dense-ascending) pair. The edge and node measures share one LCS walk.
func (m *Measure) simComputeDense(d1, d2 semnet.DenseID) float64 {
	lcs, ok := m.net.LCSDense(d1, d2)
	v := m.weights.Edge*edgeDense(m.net, d1, d2, lcs, ok) +
		m.weights.Node*nodeICDense(m.net, d1, d2, lcs, ok) +
		m.weights.Gloss*glossDense(m.net, d1, d2)
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	return v
}

// edgeDense is Edge over dense ids, given their LCS.
func edgeDense(net *semnet.Network, c1, c2, lcs semnet.DenseID, ok bool) float64 {
	if !ok {
		return 0
	}
	d1, d2 := net.DepthDense(c1), net.DepthDense(c2)
	if d1+d2 == 0 {
		return 0
	}
	return 2 * float64(net.DepthDense(lcs)) / float64(d1+d2)
}

// nodeICDense is NodeIC over dense ids, given their LCS.
func nodeICDense(net *semnet.Network, c1, c2, lcs semnet.DenseID, ok bool) float64 {
	if !ok {
		return 0
	}
	ic1, ic2 := net.ICDense(c1), net.ICDense(c2)
	if ic1+ic2 <= 0 {
		return 0
	}
	v := 2 * net.ICDense(lcs) / (ic1 + ic2)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// glossDense is Gloss over dense ids.
func glossDense(net *semnet.Network, c1, c2 semnet.DenseID) float64 {
	a, sa := net.GlossDense(c1)
	b, sb := net.GlossDense(c2)
	raw := phraseOverlap(a, b, sa, sb)
	return raw / (raw + glossSaturation)
}

// Stats reports memo hits and misses since construction (exact in serial
// runs, approximate under concurrency).
func (m *Measure) Stats() (hits, misses uint64) { return m.memo.Stats() }

// Edge is the Wu-Palmer edge-based measure:
//
//	Sim_Edge(c1, c2) = 2·depth(LCS) / (depth(c1) + depth(c2))
//
// where depth counts hypernym links from the hierarchy root (roots have
// depth 1). Concepts without a common subsumer score 0.
func Edge(net *semnet.Network, c1, c2 semnet.ConceptID) float64 {
	return atEdge(net, c1, c2, func(d1, d2 semnet.DenseID) float64 {
		lcs, ok := net.LCSDense(d1, d2)
		return edgeDense(net, d1, d2, lcs, ok)
	})
}

// NodeIC is Lin's node-based measure:
//
//	Sim_Node(c1, c2) = 2·IC(LCS) / (IC(c1) + IC(c2))
//
// using the cumulative-frequency information content of the weighted
// network. Concepts without a common subsumer score 0.
func NodeIC(net *semnet.Network, c1, c2 semnet.ConceptID) float64 {
	return atEdge(net, c1, c2, func(d1, d2 semnet.DenseID) float64 {
		lcs, ok := net.LCSDense(d1, d2)
		return nodeICDense(net, d1, d2, lcs, ok)
	})
}

// glossSaturation controls how quickly the raw extended-gloss-overlap score
// saturates toward 1: a single shared word scores 1/(1+K) while a shared
// three-word phrase (9 points) already reaches 9/(9+K). Banerjee-Pedersen's
// raw score is unbounded; this hyperbolic squashing is the "normalized
// extension" the paper calls for, and keeps the measure comparable in
// magnitude to the edge- and node-based measures it is combined with.
const glossSaturation = 8.0

// Gloss is a normalized extended gloss overlap: the glosses of each concept
// are expanded with the glosses of its directly related concepts, maximal
// shared phrases are scored quadratically (a phrase of n consecutive shared
// words scores n²), and the raw score is squashed into [0, 1) by
// raw/(raw+K).
func Gloss(net *semnet.Network, c1, c2 semnet.ConceptID) float64 {
	return atEdge(net, c1, c2, func(d1, d2 semnet.DenseID) float64 { return glossDense(net, d1, d2) })
}

// phraseOverlap computes the extended-gloss-overlap raw score of the token
// sequences a and b, given their ascending distinct token sets sa and sb:
// repeatedly take the longest common run of consecutive tokens, add its
// squared length and remove it from both sequences, until no common token
// is left. Among equally long runs the first by end cell, row-major over
// a × b, is taken — the order of the classic longest-common-substring DP,
// which decides what later runs remain. Only tokens of both sets can be
// part of a run, so disjoint sets score 0 after one merge.
func phraseOverlap(a, b, sa, sb []int32) float64 {
	var commonBuf [64]int32
	common := commonBuf[:0]
	for i, j := 0, 0; i < len(sa) && j < len(sb); {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			common = append(common, sa[i])
			i++
			j++
		}
	}
	if len(common) == 0 {
		return 0
	}
	return overlapRuns(a, b, common)
}

// overlapRuns is the greedy run search of phraseOverlap for sequences that
// share the tokens common. The DP runs on the grid of shared positions
// alone: ta and tb hold their tokens, pa and pb their positions, and
// removed positions get token sentinels that match nothing. Typical
// glosses fit the stack buffers, and then it does not allocate.
func overlapRuns(a, b, common []int32) float64 {
	var paBuf, taBuf, pbBuf, tbBuf [128]int32
	pa, ta := sharedPositions(paBuf[:0], taBuf[:0], a, common)
	pb, tb := sharedPositions(pbBuf[:0], tbBuf[:0], b, common)
	var rowBuf [256]int32
	rows := rowBuf[:]
	if 2*len(tb) > len(rows) {
		rows = make([]int32, 2*len(tb))
	}
	prev, cur := rows[:len(tb)], rows[len(tb):2*len(tb)]
	var score float64
	for {
		bx, by, l := 0, 0, int32(0)
		for x, t := range ta {
			for y, u := range tb {
				if t != u {
					cur[y] = 0
					continue
				}
				run := int32(1)
				if x > 0 && y > 0 && pa[x-1]+1 == pa[x] && pb[y-1]+1 == pb[y] {
					run = prev[y-1] + 1
				}
				cur[y] = run
				if run > l {
					bx, by, l = x, y, run
				}
			}
			prev, cur = cur, prev
		}
		if l == 0 {
			return score
		}
		score += float64(l * l)
		for k := 0; k < int(l); k++ {
			ta[bx-k], tb[by-k] = -1, -2
		}
	}
}

// sharedPositions appends to pos and tok the positions and tokens of seq
// that occur in common. Shared sets are a few tokens, so a linear scan
// beats a binary search.
func sharedPositions(pos, tok, seq, common []int32) ([]int32, []int32) {
	for i, t := range seq {
		for _, c := range common {
			if c == t {
				pos, tok = append(pos, int32(i)), append(tok, t)
				break
			}
		}
	}
	return pos, tok
}
