package simmeasure

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

func testNet(t *testing.T) *semnet.Network {
	t.Helper()
	b := semnet.NewBuilder()
	b.AddConcept("entity.n.01", "that which exists", 100, "entity")
	b.AddConcept("person.n.01", "a human being regarded as an individual", 60, "person")
	b.AddConcept("object.n.01", "a tangible and visible thing", 50, "object")
	b.AddConcept("performer.n.01", "an entertainer who performs for an audience", 20, "performer")
	b.AddConcept("actor.n.01", "a performer who acts in a play or film", 10, "actor")
	b.AddConcept("star.n.02", "an actor who plays a principal role in a play or film", 8, "star")
	b.AddConcept("rock.n.01", "a lump of hard consolidated mineral matter", 12, "rock", "stone")
	b.IsA("person.n.01", "entity.n.01")
	b.IsA("object.n.01", "entity.n.01")
	b.IsA("performer.n.01", "person.n.01")
	b.IsA("actor.n.01", "performer.n.01")
	b.IsA("star.n.02", "performer.n.01")
	b.IsA("rock.n.01", "object.n.01")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEdgeWuPalmer(t *testing.T) {
	n := testNet(t)
	// actor (depth 4) and star (depth 4) share performer (depth 3):
	// 2*3/(4+4) = 0.75.
	if got := Edge(n, "actor.n.01", "star.n.02"); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("Edge(actor, star) = %.4f, want 0.75", got)
	}
	// actor vs rock: LCS entity (depth 1), depths 4 and 3: 2/(4+3).
	if got := Edge(n, "actor.n.01", "rock.n.01"); math.Abs(got-2.0/7) > 1e-9 {
		t.Errorf("Edge(actor, rock) = %.4f, want %.4f", got, 2.0/7)
	}
	if got := Edge(n, "actor.n.01", "actor.n.01"); got != 1 {
		t.Errorf("Edge(x, x) = %f", got)
	}
}

func TestNodeICLin(t *testing.T) {
	n := testNet(t)
	sibling := NodeIC(n, "actor.n.01", "star.n.02")
	distant := NodeIC(n, "actor.n.01", "rock.n.01")
	if !(sibling > distant) {
		t.Errorf("Lin: sibling %.4f should exceed distant %.4f", sibling, distant)
	}
	if sibling <= 0 || sibling > 1 {
		t.Errorf("Lin out of range: %f", sibling)
	}
	if got := NodeIC(n, "star.n.02", "star.n.02"); got != 1 {
		t.Errorf("Lin(x, x) = %f", got)
	}
}

func TestGlossOverlap(t *testing.T) {
	n := testNet(t)
	// actor's and star's glosses share the phrase "in a play or film".
	related := Gloss(n, "actor.n.01", "star.n.02")
	unrelated := Gloss(n, "actor.n.01", "rock.n.01")
	if !(related > unrelated) {
		t.Errorf("gloss: related %.4f should exceed unrelated %.4f", related, unrelated)
	}
	if related <= 0 || related >= 1 {
		t.Errorf("gloss out of range: %f", related)
	}
	if got := Gloss(n, "rock.n.01", "rock.n.01"); got != 1 {
		t.Errorf("Gloss(x, x) = %f", got)
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := EqualWeights().Validate(); err != nil {
		t.Errorf("EqualWeights invalid: %v", err)
	}
	if err := (Weights{Edge: 0.5, Node: 0.5, Gloss: 0.5}).Validate(); err == nil {
		t.Error("sum > 1 should fail")
	}
	if err := (Weights{Edge: -1, Node: 2}).Validate(); err == nil {
		t.Error("negative weight should fail")
	}
	for _, w := range []Weights{EdgeOnly(), NodeOnly(), GlossOnly()} {
		if err := w.Validate(); err != nil {
			t.Errorf("%+v invalid: %v", w, err)
		}
	}
}

func TestWeightsNormalize(t *testing.T) {
	w := Weights{Edge: 2, Node: 1, Gloss: 1}.Normalize()
	if math.Abs(w.Edge-0.5) > 1e-9 || math.Abs(w.Node-0.25) > 1e-9 {
		t.Errorf("Normalize = %+v", w)
	}
	if got := (Weights{}).Normalize(); got != EqualWeights() {
		t.Errorf("zero weights should normalize to equal, got %+v", got)
	}
}

func TestMeasureCombinationAndCache(t *testing.T) {
	n := testNet(t)
	m := New(n, EqualWeights())
	s1 := m.Sim("actor.n.01", "star.n.02")
	s2 := m.Sim("star.n.02", "actor.n.01") // symmetric, cached
	if s1 != s2 {
		t.Errorf("Sim not symmetric: %f vs %f", s1, s2)
	}
	want := (Edge(n, "actor.n.01", "star.n.02") +
		NodeIC(n, "actor.n.01", "star.n.02") +
		Gloss(n, "actor.n.01", "star.n.02")) / 3
	if math.Abs(s1-want) > 1e-9 {
		t.Errorf("combined = %f, want %f", s1, want)
	}
	if m.Sim("actor.n.01", "actor.n.01") != 1 {
		t.Error("Sim(x,x) != 1")
	}
}

func TestMeasureSingleComponents(t *testing.T) {
	n := testNet(t)
	if got := New(n, EdgeOnly()).Sim("actor.n.01", "star.n.02"); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("edge-only Sim = %f", got)
	}
	gOnly := New(n, GlossOnly()).Sim("actor.n.01", "star.n.02")
	if math.Abs(gOnly-Gloss(n, "actor.n.01", "star.n.02")) > 1e-9 {
		t.Errorf("gloss-only Sim = %f", gOnly)
	}
}

func TestLongestCommonRun(t *testing.T) {
	a := []string{"x", "play", "or", "film", "y"}
	b := []string{"play", "or", "film"}
	ai, bi, l := oracleLongestCommonRun(a, b)
	if l != 3 || ai != 1 || bi != 0 {
		t.Errorf("oracleLongestCommonRun = (%d, %d, %d)", ai, bi, l)
	}
	if _, _, l := oracleLongestCommonRun(nil, b); l != 0 {
		t.Error("empty input should yield 0")
	}
}

func TestPhraseOverlapQuadratic(t *testing.T) {
	// One 2-run scores 4; two isolated words score 2.
	if got := kernelOverlap([]string{"a", "b"}, []string{"a", "b"}); got != 4 {
		t.Errorf("run of 2 = %f, want 4", got)
	}
	if got := kernelOverlap([]string{"a", "x", "b"}, []string{"a", "y", "b"}); got != 2 {
		t.Errorf("two singles = %f, want 2", got)
	}
	if got := kernelOverlap([]string{"a"}, []string{"b"}); got != 0 {
		t.Errorf("disjoint = %f, want 0", got)
	}
}

// TestAllMeasuresInRangeOnRealLexicon sweeps the embedded lexicon: every
// pairwise similarity over a sample must be in [0, 1] and symmetric.
func TestAllMeasuresInRangeOnRealLexicon(t *testing.T) {
	net := wordnet.Default()
	ids := net.Concepts()
	sample := ids
	if len(sample) > 60 {
		sample = sample[:60]
	}
	m := New(net, EqualWeights())
	for _, a := range sample {
		for _, b := range sample {
			v := m.Sim(a, b)
			if v < 0 || v > 1 {
				t.Fatalf("Sim(%s, %s) = %f out of range", a, b, v)
			}
			if v != m.Sim(b, a) {
				t.Fatalf("Sim(%s, %s) asymmetric", a, b)
			}
		}
	}
}

// TestSimPropertyRandomPairs: on the synthetic generator, all measures stay
// in range and self-similarity is maximal.
func TestSimPropertyRandomPairs(t *testing.T) {
	net, err := wordnet.Generate(wordnet.GenerateConfig{Seed: 7, Concepts: 120, Lemmas: 40, MaxBranch: 5, PartEvery: 6})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.Concepts()
	f := func(i, j uint16) bool {
		a := ids[int(i)%len(ids)]
		b := ids[int(j)%len(ids)]
		for _, v := range []float64{Edge(net, a, b), NodeIC(net, a, b), Gloss(net, a, b)} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return Edge(net, a, a) == 1 && NodeIC(net, a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// oraclePhraseOverlap is the string form of the extended-gloss-overlap raw
// score, kept as a test oracle for the production kernel: repeatedly find
// the longest common consecutive token run of a and b (the first one by
// end cell, row-major, on equal length), add its squared length, and
// blank it out with sentinels that never match, until no run is left.
func oraclePhraseOverlap(a, b []string) float64 {
	ac := append([]string(nil), a...)
	bc := append([]string(nil), b...)
	var score float64
	for {
		ai, bi, l := oracleLongestCommonRun(ac, bc)
		if l == 0 {
			return score
		}
		score += float64(l * l)
		for k := 0; k < l; k++ {
			ac[ai+k] = "\x00a"
			bc[bi+k] = "\x00b"
		}
	}
}

// oracleLongestCommonRun returns the start indexes and length of the first
// (by end cell, row-major) longest common consecutive run of a and b.
func oracleLongestCommonRun(a, b []string) (ai, bi, l int) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > l {
					l = cur[j]
					ai = i - l
					bi = j - l
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return ai, bi, l
}

// oracleExpandedGloss rebuilds a concept's extended gloss from the public
// API: its own gloss tokens, then each neighbor's in edge order.
func oracleExpandedGloss(net *semnet.Network, c semnet.ConceptID) []string {
	out := append([]string(nil), net.GlossTokens(c)...)
	for _, e := range net.Edges(c) {
		out = append(out, net.GlossTokens(e.To)...)
	}
	return out
}

// oracleGloss is Gloss computed entirely by the string oracle.
func oracleGloss(net *semnet.Network, c1, c2 semnet.ConceptID) float64 {
	if c1 == c2 {
		return 1
	}
	g1, g2 := oracleExpandedGloss(net, c1), oracleExpandedGloss(net, c2)
	if len(g1) == 0 || len(g2) == 0 {
		return 0
	}
	raw := oraclePhraseOverlap(g1, g2)
	return raw / (raw + glossSaturation)
}

// generated5k is the 5,000-concept synthetic lexicon the cold-lexicon
// benchmark scores over.
func generated5k(tb testing.TB) *semnet.Network {
	tb.Helper()
	net, err := wordnet.Generate(wordnet.GenerateConfig{Seed: 1, Concepts: 5000, Lemmas: 1800, MaxBranch: 6, PartEvery: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// TestGlossMatchesStringOracleOnGenerated compares Gloss bit for bit with
// the string oracle over seeded pairs of the generated 5k lexicon: random
// pairs (mostly disjoint glosses) and concept/neighbor-of-neighbor pairs
// (which share whole gloss phrases through their common neighbor).
func TestGlossMatchesStringOracleOnGenerated(t *testing.T) {
	net := generated5k(t)
	ids := net.Concepts()
	rng := rand.New(rand.NewSource(11))
	overlapping := 0
	check := func(a, b semnet.ConceptID) {
		got, want := Gloss(net, a, b), oracleGloss(net, a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Gloss(%s, %s) = %.17g, oracle %.17g", a, b, got, want)
		}
		if want > 0 {
			overlapping++
		}
	}
	for k := 0; k < 2000; k++ {
		a := ids[rng.Intn(len(ids))]
		check(a, ids[rng.Intn(len(ids))])
		if es := net.Edges(a); len(es) > 0 {
			if fs := net.Edges(es[rng.Intn(len(es))].To); len(fs) > 0 {
				b := fs[rng.Intn(len(fs))].To
				check(a, b)
				check(b, a)
			}
		}
	}
	if overlapping < 1000 {
		t.Fatalf("only %d overlapping pairs: the sample does not exercise the run search", overlapping)
	}
}

// TestGlossMatchesStringOracleOnLongGlosses compares Gloss bit for bit
// with the string oracle on every pair of the mini-WordNet concepts with
// the longest expanded glosses (up to hundreds of tokens), so shared
// position lists outgrow the kernel's stack buffers.
func TestGlossMatchesStringOracleOnLongGlosses(t *testing.T) {
	net := wordnet.Default()
	ids := append([]semnet.ConceptID(nil), net.Concepts()...)
	gloss := map[semnet.ConceptID][]string{}
	for _, c := range ids {
		gloss[c] = oracleExpandedGloss(net, c)
	}
	slices.SortStableFunc(ids, func(a, b semnet.ConceptID) int { return len(gloss[b]) - len(gloss[a]) })
	ids = ids[:16]
	large := 0
	for _, a := range ids {
		for _, b := range ids {
			got, want := Gloss(net, a, b), oracleGloss(net, a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Gloss(%s, %s) = %.17g, oracle %.17g", a, b, got, want)
			}
			if sharedPositionCount(gloss[a], gloss[b]) > 128 {
				large++
			}
		}
	}
	if large == 0 {
		t.Fatal("no pair shares more than 128 positions: the heap fallback is not exercised")
	}
}

// sharedPositionCount counts the positions of a whose token occurs in b.
func sharedPositionCount(a, b []string) int {
	n := 0
	for _, tok := range a {
		if slices.Contains(b, tok) {
			n++
		}
	}
	return n
}

// TestPhraseOverlapMatchesStringOracle compares the production kernel bit
// for bit with the string oracle on short sequences over a three-letter
// alphabet: repeated tokens, overlapping and competing equal-length runs,
// where the greedy order of removal decides the score.
func TestPhraseOverlapMatchesStringOracle(t *testing.T) {
	cases := [][2][]string{
		// Equal-length runs compete, and the greedy pick decides the total:
		// the first run by end cell scores 6 here and 8 in the next case;
		// taking the last one instead would score 8 and 6.
		{{"b", "b", "c", "b"}, {"c", "b", "b", "b"}},
		{{"b", "c", "c", "b"}, {"c", "b", "b", "c", "b"}},
		{{"a", "b", "c", "a", "b"}, {"c", "a", "b", "c"}},
		{{"a", "a", "a"}, {"a", "a"}},
		{{}, {"a"}},
	}
	rng := rand.New(rand.NewSource(5))
	alphabet := []string{"a", "b", "c"}
	for k := 0; k < 3000; k++ {
		var c [2][]string
		for s := range c {
			for n := rng.Intn(24); n > 0; n-- {
				c[s] = append(c[s], alphabet[rng.Intn(len(alphabet))])
			}
		}
		cases = append(cases, c)
	}
	if got := oraclePhraseOverlap(cases[0][0], cases[0][1]); got != 6 {
		t.Fatalf("oracle scores the competing-runs case %g, want 6", got)
	}
	for _, c := range cases {
		got, want := kernelOverlap(c[0], c[1]), oraclePhraseOverlap(c[0], c[1])
		if got != want {
			t.Fatalf("phraseOverlap(%v, %v) = %g, oracle %g", c[0], c[1], got, want)
		}
	}
}

// kernelOverlap runs the production overlap kernel on string sequences,
// interned to ids with their sorted distinct sets.
func kernelOverlap(a, b []string) float64 {
	ids := map[string]int32{}
	intern := func(toks []string) (seq, set []int32) {
		for _, tok := range toks {
			id, ok := ids[tok]
			if !ok {
				id = int32(len(ids))
				ids[tok] = id
			}
			seq = append(seq, id)
		}
		set = slices.Clone(seq)
		slices.Sort(set)
		return seq, slices.Compact(set)
	}
	sa, setA := intern(a)
	sb, setB := intern(b)
	return phraseOverlap(sa, sb, setA, setB)
}
