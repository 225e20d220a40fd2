package semnet

import (
	"fmt"
	"math"
	"repro/internal/lingproc"
	"slices"
	"sort"
	"strings"
)

// Builder assembles a Network incrementally. It is not safe for concurrent
// use; Build finalizes and returns an immutable Network.
type Builder struct {
	concepts map[ConceptID]*Concept
	order    []ConceptID
	edges    map[ConceptID][]Edge
	errs     []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		concepts: make(map[ConceptID]*Concept),
		edges:    make(map[ConceptID][]Edge),
	}
}

// AddConcept registers a concept. Lemmas are lower-cased; the first lemma is
// the primary label. Duplicate ids are recorded as build errors.
func (b *Builder) AddConcept(id ConceptID, gloss string, freq float64, lemmas ...string) *Builder {
	if _, dup := b.concepts[id]; dup {
		b.errs = append(b.errs, fmt.Errorf("semnet: duplicate concept %q", id))
		return b
	}
	if len(lemmas) == 0 {
		b.errs = append(b.errs, fmt.Errorf("semnet: concept %q has no lemmas", id))
		return b
	}
	low := make([]string, len(lemmas))
	for i, l := range lemmas {
		low[i] = strings.ToLower(strings.TrimSpace(l))
	}
	b.concepts[id] = &Concept{ID: id, Lemmas: low, Gloss: gloss, Freq: freq}
	b.order = append(b.order, id)
	return b
}

// AddEdge registers a typed edge from -> to and its inverse to -> from.
// Unknown endpoints are recorded as build errors at Build time.
func (b *Builder) AddEdge(from ConceptID, rel Relation, to ConceptID) *Builder {
	b.edges[from] = append(b.edges[from], Edge{To: to, Rel: rel})
	b.edges[to] = append(b.edges[to], Edge{To: from, Rel: rel.Inverse()})
	return b
}

// IsA is shorthand for AddEdge(child, Hypernym, parent).
func (b *Builder) IsA(child, parent ConceptID) *Builder {
	return b.AddEdge(child, Hypernym, parent)
}

// PartOf is shorthand for AddEdge(part, Holonym, whole).
func (b *Builder) PartOf(part, whole ConceptID) *Builder {
	return b.AddEdge(part, Holonym, whole)
}

// Build validates the accumulated definitions and returns the finished
// network: lemma index, hypernym depths, cumulative frequencies, and gloss
// token caches are all precomputed here.
func (b *Builder) Build() (*Network, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	n := &Network{
		concepts: b.concepts,
		order:    b.order,
		edges:    make(map[ConceptID][]Edge, len(b.edges)),
		byLemma:  make(map[string][]ConceptID),
	}
	// Validate and copy edges, deduplicating.
	for from, es := range b.edges {
		if _, ok := b.concepts[from]; !ok {
			return nil, fmt.Errorf("semnet: edge from unknown concept %q", from)
		}
		seen := make(map[Edge]struct{}, len(es))
		for _, e := range es {
			if _, ok := b.concepts[e.To]; !ok {
				return nil, fmt.Errorf("semnet: edge %q -> unknown concept %q", from, e.To)
			}
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			n.edges[from] = append(n.edges[from], e)
		}
	}
	// Lemma index. Senses of each lemma are ordered by decreasing concept
	// frequency (ties keep insertion order), mirroring WordNet's
	// frequency-ordered sense lists: Senses(lemma)[0] is the dominant
	// sense, which baselines and tie-breaks fall back to.
	for _, id := range b.order {
		for _, l := range b.concepts[id].Lemmas {
			n.byLemma[l] = append(n.byLemma[l], id)
		}
	}
	for _, ids := range n.byLemma {
		sort.SliceStable(ids, func(i, j int) bool {
			return b.concepts[ids[i]].Freq > b.concepts[ids[j]].Freq
		})
	}
	for _, ids := range n.byLemma {
		if len(ids) > n.maxPolysemy {
			n.maxPolysemy = len(ids)
		}
	}
	// Dense representation: assign every concept its int32 id (position in
	// the immutable insertion order) and translate the edge set, then run
	// every derived computation — depths, cumulative frequencies, ancestor
	// sets, interned expanded glosses — directly on the dense arrays. The
	// string-keyed API delegates through the index.
	n.index = newConceptIndex(n.order)
	N := len(n.order)
	n.edgesD = make([][]DenseEdge, N)
	for i, id := range n.order {
		es := n.edges[id]
		if len(es) == 0 {
			continue
		}
		ds := make([]DenseEdge, len(es))
		for j, e := range es {
			ds[j] = DenseEdge{To: n.index.dense[e.To], Rel: e.Rel}
		}
		n.edgesD[i] = ds
	}
	n.buildLabelTable()
	if err := n.computeDepths(); err != nil {
		return nil, err
	}
	n.computeCumFreq()
	n.icD = make([]float64, N)
	for d := 0; d < N; d++ {
		if cf := n.cumFreqD[d]; cf > 0 && n.totalFreq > 0 {
			n.icD[d] = -math.Log(cf / n.totalFreq)
		} else {
			n.icD[d] = n.maxIC()
		}
	}
	// Hot-path precomputations, pure functions of the now-frozen network:
	// ancestor sets for LCS and interned expanded glosses for the overlap
	// measure, so similarity scoring neither walks the taxonomy nor
	// concatenates or hashes gloss strings per pair.
	n.buildAncestors()
	n.buildGlosses(b.concepts)
	n.sensesL = make([][]DenseID, len(n.labels))
	for l, lemma := range n.labels {
		ids := n.byLemma[lemma]
		ds := make([]DenseID, len(ids))
		for i, id := range ids {
			ds[i] = n.index.dense[id]
		}
		n.sensesL[l] = ds
	}
	return n, nil
}

// buildLabelTable freezes the label universe: every distinct lemma, sorted
// lexicographically so dense label order preserves string order, plus the
// primary-label dimension of each concept.
func (n *Network) buildLabelTable() {
	n.labels = make([]string, 0, len(n.byLemma))
	for l := range n.byLemma {
		n.labels = append(n.labels, l)
	}
	sort.Strings(n.labels)
	n.labelID = make(map[string]int32, len(n.labels))
	for i, l := range n.labels {
		n.labelID[l] = int32(i)
	}
	n.labelOfD = make([]int32, len(n.order))
	for i, id := range n.order {
		n.labelOfD[i] = n.labelID[n.concepts[id].Label()]
	}
}

// MustBuild is Build that panics on error, for static embedded lexicons.
//
// Panic audit: this panic is unreachable from user input inside the
// framework — the only library caller (wordnet.Default) builds the
// embedded lexicon, which is validated by the wordnet package's tests at
// CI time. Networks assembled from user data should call Build and handle
// the error; additionally, the public pipeline entry points recover any
// escaping panic into an *xsdferrors.PanicError, so even a Must* misuse in
// caller code cannot take down a batch run.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// computeDepths assigns each concept its hypernym depth: roots (concepts
// without hypernyms) get depth 1, children one more than their shallowest
// parent. Cycles in the hypernym relation are rejected.
func (n *Network) computeDepths() error {
	// Kahn-style BFS from the roots downward along Hyponym edges, entirely
	// on the dense adjacency.
	N := len(n.order)
	n.depthD = make([]int32, N)
	indeg := make([]int32, N) // number of hypernyms
	for d := 0; d < N; d++ {
		for _, e := range n.edgesD[d] {
			if e.Rel == Hypernym {
				indeg[d]++
			}
		}
	}
	var queue []int32
	for d := 0; d < N; d++ {
		if indeg[d] == 0 {
			n.depthD[d] = 1
			queue = append(queue, int32(d))
		}
	}
	processed := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		processed++
		if int(n.depthD[cur]) > n.maxDepth {
			n.maxDepth = int(n.depthD[cur])
		}
		for _, e := range n.edgesD[cur] {
			if e.Rel != Hyponym {
				continue
			}
			child := e.To
			if d := n.depthD[child]; d == 0 || n.depthD[cur]+1 < d {
				n.depthD[child] = n.depthD[cur] + 1
			}
			indeg[child]--
			if indeg[child] == 0 {
				queue = append(queue, child)
			}
		}
	}
	if processed != N {
		return fmt.Errorf("semnet: hypernym cycle detected (%d of %d concepts reachable from roots)",
			processed, N)
	}
	return nil
}

// computeCumFreq propagates concept frequencies up the hypernym hierarchy:
// cumFreq(c) = Freq(c) + sum of Freq over all hyponym descendants, so that
// p(c) is monotone non-decreasing toward the roots as Resnik/Lin require.
func (n *Network) computeCumFreq() {
	// A descendant reachable through multiple parents must still be counted
	// once per distinct path-free semantics, so cumFreq is computed per
	// concept from its full descendant set instead of summing child
	// cumFreqs (which would double-count under multiple inheritance).
	// Descendants are accumulated in BFS visit order, which is fixed by the
	// frozen edge set, so the float sum is deterministic.
	N := len(n.order)
	n.cumFreqD = make([]float64, N)
	w := newWalker(N)
	for d := 0; d < N; d++ {
		var sum float64
		for _, cur := range w.walk(n, DenseID(d), Hyponym) {
			sum += n.concepts[n.order[cur]].Freq
		}
		n.cumFreqD[d] = sum
	}
	for d := 0; d < N; d++ {
		root := true
		for _, e := range n.edgesD[d] {
			if e.Rel == Hypernym {
				root = false
				break
			}
		}
		if root {
			n.totalFreq += n.cumFreqD[d]
		}
	}
}

// walker runs breadth-first walks over one relation kind, reusing an
// epoch-stamped visited slice and one queue across walks.
type walker struct {
	visited []int32
	epoch   int32
	queue   []int32
}

func newWalker(n int) *walker { return &walker{visited: make([]int32, n)} }

// walk returns d and every concept reachable from it over rel edges, each
// once, in BFS visit order. The slice is reused by the next walk.
func (w *walker) walk(n *Network, d DenseID, rel Relation) []int32 {
	w.epoch++
	w.queue = append(w.queue[:0], d)
	w.visited[d] = w.epoch
	for h := 0; h < len(w.queue); h++ {
		for _, e := range n.edgesD[w.queue[h]] {
			if e.Rel == rel && w.visited[e.To] != w.epoch {
				w.visited[e.To] = w.epoch
				w.queue = append(w.queue, e.To)
			}
		}
	}
	return w.queue
}

// buildAncestors stores each concept's ancestor set (itself and all
// transitive hypernyms) in ascending id order, with each ancestor's rank
// in the concept's BFS visit order alongside.
func (n *Network) buildAncestors() {
	N := len(n.order)
	w := newWalker(N)
	rankOf := make([]int32, N)
	anc := ragged{off: make([]int, N+1)}
	var rank []int32
	for d := 0; d < N; d++ {
		start := len(anc.data)
		for r, cur := range w.walk(n, DenseID(d), Hypernym) {
			rankOf[cur] = int32(r)
			anc.data = append(anc.data, cur)
		}
		slices.Sort(anc.data[start:])
		for _, cur := range anc.data[start:] {
			rank = append(rank, rankOf[cur])
		}
		anc.off[d+1] = len(anc.data)
	}
	anc.data = slices.Clone(anc.data)
	n.ancestors, n.ancRank = anc, slices.Clone(rank)
}

// buildGlosses interns each concept's own gloss tokens, then stores every
// expanded gloss (own tokens, then each neighbor's in edge order) as ids
// together with its ascending set of distinct ids. Each distinct gloss
// word is filtered and stemmed once.
func (n *Network) buildGlosses(concepts map[ConceptID]*Concept) {
	N := len(n.order)
	word := make(map[string]int32, N) // gloss word -> token id, -1 when dropped
	token := make(map[string]int32, N)
	own := ragged{off: make([]int, N+1)}
	for d, id := range n.order {
		for _, w := range glossWords(concepts[id].Gloss) {
			t, ok := word[w]
			if !ok {
				t = -1
				if tok, keep := glossToken(w); keep {
					if t, ok = token[tok]; !ok {
						t = int32(len(token))
						token[tok] = t
					}
				}
				word[w] = t
			}
			if t >= 0 {
				own.data = append(own.data, t)
			}
		}
		own.off[d+1] = len(own.data)
	}
	exp := ragged{off: make([]int, N+1)}
	set := ragged{off: make([]int, N+1)}
	seen := make([]int32, len(token))
	for d := 0; d < N; d++ {
		start, setStart := len(exp.data), len(set.data)
		exp.data = append(exp.data, own.row(DenseID(d))...)
		for _, e := range n.edgesD[d] {
			exp.data = append(exp.data, own.row(e.To)...)
		}
		for _, t := range exp.data[start:] {
			if seen[t] != int32(d+1) {
				seen[t] = int32(d + 1)
				set.data = append(set.data, t)
			}
		}
		slices.Sort(set.data[setStart:])
		exp.off[d+1], set.off[d+1] = len(exp.data), len(set.data)
	}
	exp.data, set.data = slices.Clone(exp.data), slices.Clone(set.data)
	n.expGloss, n.glossSet = exp, set
}

// glossWords lower-cases a gloss and splits it into alphanumeric words.
func glossWords(gloss string) []string {
	return strings.FieldsFunc(strings.ToLower(gloss), func(r rune) bool {
		return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
	})
}

// glossToken maps a gloss word to its content token for the gloss-overlap
// measure: one-letter words and common stop words are dropped, the rest
// stemmed. Stemming makes morphological variants ("actor"/"actors",
// "recorded"/"recordings") overlap, as the Banerjee-Pedersen measure
// assumes of its preprocessed glosses.
func glossToken(w string) (string, bool) {
	if len(w) <= 1 || isGlossStop(w) {
		return "", false
	}
	return lingproc.Stem(w), true
}

var glossStops = func() map[string]struct{} {
	m := map[string]struct{}{}
	for _, w := range strings.Fields("a an the of or and to in on for with by as at is are was were be that this it its from who which") {
		m[w] = struct{}{}
	}
	return m
}()

func isGlossStop(w string) bool {
	_, ok := glossStops[w]
	return ok
}

// SortedLemmaIndex renders the lemma -> sense-count mapping sorted by lemma,
// a debugging aid used by cmd tools.
func (n *Network) SortedLemmaIndex() []string {
	lemmas := n.Lemmas()
	out := make([]string, len(lemmas))
	for i, l := range lemmas {
		out[i] = fmt.Sprintf("%s (%d senses)", l, len(n.byLemma[l]))
	}
	sort.Strings(out)
	return out
}
