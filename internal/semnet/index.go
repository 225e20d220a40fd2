package semnet

// This file implements the dense integer concept index that backs the
// scoring hot path. Every Network built by Builder (and therefore every
// snapshot the hot-swap layer publishes) carries one ConceptIndex assigned
// at build time: dense ids are positions in the immutable insertion order,
// so they are stable for the lifetime of the Network and never reused
// across snapshot epochs (a reloaded Network gets a fresh index).
//
// The scoring core (sphere vectors, simmeasure, disambig caches) runs
// entirely on these int32 ids; ConceptID strings appear only at the API
// boundary (building the network, reporting assigned senses).

// DenseID is the position of a concept in its Network's insertion order.
// It is only meaningful relative to the Network (epoch) that assigned it.
type DenseID = int32

// DenseEdge is one adjacency entry of the integer-indexed edge lists.
type DenseEdge struct {
	To  DenseID
	Rel Relation
}

// ConceptIndex is the bidirectional ConceptID <-> dense int32 mapping,
// built once per Network. It is immutable after Build and safe for
// concurrent use.
type ConceptIndex struct {
	ids   []ConceptID // dense -> ConceptID, insertion order
	dense map[ConceptID]DenseID
}

func newConceptIndex(order []ConceptID) *ConceptIndex {
	ix := &ConceptIndex{
		ids:   order,
		dense: make(map[ConceptID]DenseID, len(order)),
	}
	for i, id := range order {
		ix.dense[id] = DenseID(i)
	}
	return ix
}

// Len returns the number of indexed concepts.
func (ix *ConceptIndex) Len() int { return len(ix.ids) }

// Dense returns the dense id of the concept, or false when the ConceptID is
// not part of the Network this index was built for.
func (ix *ConceptIndex) Dense(id ConceptID) (DenseID, bool) {
	d, ok := ix.dense[id]
	return d, ok
}

// ID returns the ConceptID at the dense position, or false when d is out of
// range for this Network.
func (ix *ConceptIndex) ID(d DenseID) (ConceptID, bool) {
	if d < 0 || int(d) >= len(ix.ids) {
		return "", false
	}
	return ix.ids[d], true
}

// PairKey packs two dense ids (or a dense id and a label id) into one map
// key. Callers canonicalize the order when the relation is symmetric.
func PairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Index returns the Network's concept index. The returned value is shared
// and read-only.
func (n *Network) Index() *ConceptIndex { return n.index }

// Dense returns the dense id of a ConceptID, or false when unknown.
func (n *Network) Dense(id ConceptID) (DenseID, bool) { return n.index.Dense(id) }

// ConceptAt returns the ConceptID at a dense position, or false when out of
// range.
func (n *Network) ConceptAt(d DenseID) (ConceptID, bool) { return n.index.ID(d) }

// DepthDense is Depth for an in-range dense id.
func (n *Network) DepthDense(d DenseID) int { return int(n.depthD[d]) }

// ICDense is IC for an in-range dense id (precomputed at build time).
func (n *Network) ICDense(d DenseID) float64 { return n.icD[d] }

// EdgesDense returns the integer-indexed adjacency of d. Read-only.
func (n *Network) EdgesDense(d DenseID) []DenseEdge { return n.edgesD[d] }

// LabelDense returns the label-dimension id of the concept's primary label
// (always a known label: primary labels are lemmas).
func (n *Network) LabelDense(d DenseID) int32 { return n.labelOfD[d] }

// GlossDense returns the concept's expanded gloss as interned token ids —
// its own gloss tokens, then each direct neighbor's over all relation
// kinds in edge order: the "extended" gloss of the Banerjee-Pedersen
// overlap measure — and the ascending set of its distinct ids. Both
// slices are shared and read-only.
func (n *Network) GlossDense(d DenseID) (seq, set []int32) {
	return n.expGloss.row(d), n.glossSet.row(d)
}

// SensesLabel returns the label id of a word or expression and the dense
// ids of its senses in the same frequency order as Senses, or -1 and nil
// when the lemma is unknown. The slice is shared and read-only; the label
// id names the sense list, so memos can key on it.
func (n *Network) SensesLabel(lemma string) (int32, []DenseID) {
	l, ok := n.labelID[lower(lemma)]
	if !ok {
		return -1, nil
	}
	return l, n.sensesL[l]
}

// LCSDense is LCS over dense ids: a merge-join of the two ascending
// ancestor sets that keeps the deepest common ancestor and, among equally
// deep ones, the first in b's BFS visit order (lowest rank in b's set).
// It is not memoized: its hot caller, the pairwise similarity memo,
// computes each pair once.
func (n *Network) LCSDense(a, b DenseID) (DenseID, bool) {
	x, y := n.ancestors.row(a), n.ancestors.row(b)
	rank := n.ancRank[n.ancestors.off[b]:n.ancestors.off[b+1]]
	best, bestDepth, bestRank := DenseID(-1), int32(-1), int32(0)
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch c := x[i]; {
		case c < y[j]:
			i++
		case c > y[j]:
			j++
		default:
			if d := n.depthD[c]; d > bestDepth || d == bestDepth && rank[j] < bestRank {
				best, bestDepth, bestRank = c, d, rank[j]
			}
			i++
			j++
		}
	}
	return best, bestDepth >= 0
}

// ragged stores one read-only int32 row per concept back to back: row d
// is data[off[d]:off[d+1]].
type ragged struct {
	off  []int
	data []int32
}

func (r *ragged) row(d DenseID) []int32 { return r.data[r.off[d]:r.off[d+1]:r.off[d+1]] }

// Vocab implementation (sphere.Vocab): the network's label universe is its
// lemma set, sorted lexicographically, so dense label order coincides with
// string order and merge-join similarity visits dimensions in the same
// order the string-keyed maps were folded in.

// LabelID returns the dense dimension of a label, or false when the label
// is not a lemma of this network. Matching is exact (the scoring core sees
// labels already normalized by lingproc).
func (n *Network) LabelID(label string) (int32, bool) {
	d, ok := n.labelID[label]
	return d, ok
}

// LabelName returns the label at a dense dimension, or "" when out of
// range (vector dimensions above NumLabels are per-vector unknowns with no
// global name).
func (n *Network) LabelName(dim int32) string {
	if dim < 0 || int(dim) >= len(n.labels) {
		return ""
	}
	return n.labels[dim]
}

// NumLabels returns the size of the label universe; vector dimensions >=
// NumLabels denote labels unknown to the network.
func (n *Network) NumLabels() int { return len(n.labels) }
