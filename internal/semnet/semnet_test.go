package semnet

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildFigure2 constructs a network shaped like the paper's Figure 2
// extract: entity > {person > {actor, worker}, object}, with frequencies.
func buildFigure2(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	b.AddConcept("entity.n.01", "that which exists", 100, "entity")
	b.AddConcept("person.n.01", "a human being", 50, "person", "individual")
	b.AddConcept("object.n.01", "a tangible thing", 40, "object")
	b.AddConcept("actor.n.01", "a theatrical performer", 10, "actor", "player")
	b.AddConcept("worker.n.01", "a person who works", 15, "worker", "player")
	b.AddConcept("hand.n.01", "the prehensile extremity", 5, "hand")
	b.IsA("person.n.01", "entity.n.01")
	b.IsA("object.n.01", "entity.n.01")
	b.IsA("actor.n.01", "person.n.01")
	b.IsA("worker.n.01", "person.n.01")
	b.PartOf("hand.n.01", "person.n.01")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSensesAndPolysemy(t *testing.T) {
	n := buildFigure2(t)
	if got := n.PolysemyOf("player"); got != 2 {
		t.Errorf("polysemy(player) = %d, want 2", got)
	}
	if got := n.PolysemyOf("actor"); got != 1 {
		t.Errorf("polysemy(actor) = %d, want 1", got)
	}
	if got := n.PolysemyOf("unknown"); got != 0 {
		t.Errorf("polysemy(unknown) = %d, want 0", got)
	}
	if n.MaxPolysemy() != 2 {
		t.Errorf("MaxPolysemy = %d, want 2", n.MaxPolysemy())
	}
	if !n.HasLemma("Individual") {
		t.Error("HasLemma should be case-insensitive")
	}
}

func TestSensesFrequencyOrdered(t *testing.T) {
	n := buildFigure2(t)
	// "player" names worker (freq 15) and actor (freq 10): worker first.
	senses := n.Senses("player")
	if len(senses) != 2 || senses[0] != "worker.n.01" {
		t.Errorf("Senses(player) = %v, want worker.n.01 first (higher freq)", senses)
	}
}

func TestDepths(t *testing.T) {
	n := buildFigure2(t)
	want := map[ConceptID]int{
		"entity.n.01": 1, "person.n.01": 2, "object.n.01": 2,
		"actor.n.01": 3, "worker.n.01": 3,
		"hand.n.01": 1, // no hypernym: a root of its own
	}
	for id, d := range want {
		if got := n.Depth(id); got != d {
			t.Errorf("Depth(%s) = %d, want %d", id, got, d)
		}
	}
	if n.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d", n.MaxDepth())
	}
}

func TestLCS(t *testing.T) {
	n := buildFigure2(t)
	if lcs, ok := n.LCS("actor.n.01", "worker.n.01"); !ok || lcs != "person.n.01" {
		t.Errorf("LCS(actor, worker) = %s %v", lcs, ok)
	}
	if lcs, ok := n.LCS("actor.n.01", "object.n.01"); !ok || lcs != "entity.n.01" {
		t.Errorf("LCS(actor, object) = %s %v", lcs, ok)
	}
	// A concept subsumes itself.
	if lcs, ok := n.LCS("person.n.01", "actor.n.01"); !ok || lcs != "person.n.01" {
		t.Errorf("LCS(person, actor) = %s %v", lcs, ok)
	}
	// hand is an isolated root: no common subsumer with entity's tree.
	if _, ok := n.LCS("hand.n.01", "actor.n.01"); ok {
		t.Error("LCS(hand, actor) should not exist")
	}
}

// TestLCSEqualDepthTieBreak pins the LCS tie-break under multiple
// inheritance. In the diamond below, x and y are both depth-2 common
// ancestors of a and b. x has the lower dense id, but b lists y first
// among its hypernyms, so y comes first in b's BFS visit order; a lists
// them the other way round. LCS(a, b) must return the candidate that
// comes first in b's BFS order, not the one with the lower id.
func TestLCSEqualDepthTieBreak(t *testing.T) {
	b := NewBuilder()
	b.AddConcept("root.n.01", "the root", 10, "root")
	b.AddConcept("x.n.01", "first middle", 5, "x")
	b.AddConcept("y.n.01", "second middle", 5, "y")
	b.AddConcept("a.n.01", "left leaf", 1, "a")
	b.AddConcept("b.n.01", "right leaf", 1, "b")
	b.IsA("x.n.01", "root.n.01")
	b.IsA("y.n.01", "root.n.01")
	b.IsA("a.n.01", "x.n.01")
	b.IsA("a.n.01", "y.n.01")
	b.IsA("b.n.01", "y.n.01")
	b.IsA("b.n.01", "x.n.01")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dx, _ := n.Dense("x.n.01")
	dy, _ := n.Dense("y.n.01")
	if !(dx < dy) || n.Depth("x.n.01") != n.Depth("y.n.01") {
		t.Fatalf("fixture broken: want dense(x) < dense(y) at equal depth")
	}
	for _, c := range []struct{ a, b, want ConceptID }{
		{"a.n.01", "b.n.01", "y.n.01"},
		{"b.n.01", "a.n.01", "x.n.01"},
		{"a.n.01", "a.n.01", "a.n.01"},
		{"x.n.01", "b.n.01", "x.n.01"},
	} {
		if lcs, ok := n.LCS(c.a, c.b); !ok || lcs != c.want {
			t.Errorf("LCS(%s, %s) = %s %v, want %s", c.a, c.b, lcs, ok, c.want)
		}
		da, _ := n.Dense(c.a)
		db, _ := n.Dense(c.b)
		if d, ok := n.LCSDense(da, db); !ok || n.Index().ids[d] != c.want {
			t.Errorf("LCSDense(%s, %s) = %d %v, want %s", c.a, c.b, d, ok, c.want)
		}
	}
}

func TestICMonotoneUpHierarchy(t *testing.T) {
	n := buildFigure2(t)
	// IC must not decrease with specialization: IC(actor) >= IC(person) >=
	// IC(entity).
	if !(n.IC("actor.n.01") >= n.IC("person.n.01") && n.IC("person.n.01") >= n.IC("entity.n.01")) {
		t.Errorf("IC not monotone: actor=%.3f person=%.3f entity=%.3f",
			n.IC("actor.n.01"), n.IC("person.n.01"), n.IC("entity.n.01"))
	}
	if n.IC("entity.n.01") < 0 {
		t.Errorf("IC(root) = %.3f, want >= 0", n.IC("entity.n.01"))
	}
}

func TestNeighborhood(t *testing.T) {
	n := buildFigure2(t)
	nb := n.Neighborhood("actor.n.01", 1)
	if nb["actor.n.01"] != 0 {
		t.Error("center missing at distance 0")
	}
	if nb["person.n.01"] != 1 {
		t.Errorf("person at %d, want 1", nb["person.n.01"])
	}
	if _, ok := nb["entity.n.01"]; ok {
		t.Error("entity should be outside radius 1")
	}
	nb2 := n.Neighborhood("actor.n.01", 2)
	if nb2["entity.n.01"] != 2 || nb2["worker.n.01"] != 2 || nb2["hand.n.01"] != 2 {
		t.Errorf("radius-2 neighborhood wrong: %v", nb2)
	}
}

func TestPartOfEdgesBidirectional(t *testing.T) {
	n := buildFigure2(t)
	var foundHolonym, foundMeronym bool
	for _, e := range n.Edges("hand.n.01") {
		if e.Rel == Holonym && e.To == "person.n.01" {
			foundHolonym = true
		}
	}
	for _, e := range n.Edges("person.n.01") {
		if e.Rel == Meronym && e.To == "hand.n.01" {
			foundMeronym = true
		}
	}
	if !foundHolonym || !foundMeronym {
		t.Error("PartOf edge or inverse missing")
	}
}

func TestGlossTokensStemmedAndStopFree(t *testing.T) {
	n := buildFigure2(t)
	toks := n.GlossTokens("actor.n.01") // "a theatrical performer"
	joined := strings.Join(toks, " ")
	if strings.Contains(joined, " a ") || len(toks) != 2 {
		t.Errorf("gloss tokens = %v", toks)
	}
	// "theatrical" must be stemmed consistently with "theater"-family words.
	if toks[0] != "theatric" {
		t.Errorf("gloss token[0] = %q, want stemmed form", toks[0])
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate id", func(t *testing.T) {
		b := NewBuilder()
		b.AddConcept("x.n.01", "g", 1, "x")
		b.AddConcept("x.n.01", "g", 1, "x")
		if _, err := b.Build(); err == nil {
			t.Error("expected duplicate error")
		}
	})
	t.Run("no lemmas", func(t *testing.T) {
		b := NewBuilder()
		b.AddConcept("x.n.01", "g", 1)
		if _, err := b.Build(); err == nil {
			t.Error("expected no-lemma error")
		}
	})
	t.Run("unknown edge endpoint", func(t *testing.T) {
		b := NewBuilder()
		b.AddConcept("x.n.01", "g", 1, "x")
		b.IsA("x.n.01", "ghost.n.01")
		if _, err := b.Build(); err == nil {
			t.Error("expected unknown-endpoint error")
		}
	})
	t.Run("hypernym cycle", func(t *testing.T) {
		b := NewBuilder()
		b.AddConcept("a.n.01", "g", 1, "a")
		b.AddConcept("b.n.01", "g", 1, "b")
		b.IsA("a.n.01", "b.n.01")
		b.IsA("b.n.01", "a.n.01")
		if _, err := b.Build(); err == nil {
			t.Error("expected cycle error")
		}
	})
}

func TestRelationInverse(t *testing.T) {
	pairs := map[Relation]Relation{
		Hypernym: Hyponym, Hyponym: Hypernym,
		Meronym: Holonym, Holonym: Meronym,
		Related: Related,
	}
	for r, inv := range pairs {
		if r.Inverse() != inv {
			t.Errorf("%v.Inverse() = %v, want %v", r, r.Inverse(), inv)
		}
	}
}

func TestConceptLabel(t *testing.T) {
	n := buildFigure2(t)
	if got := n.Concept("person.n.01").Label(); got != "person" {
		t.Errorf("Label = %q", got)
	}
	empty := &Concept{ID: "x.n.01"}
	if empty.Label() != "x.n.01" {
		t.Error("lemma-less concept should fall back to id")
	}
}

// chainNetwork builds a deterministic chain a0 <- a1 <- ... for property
// tests.
func chainNetwork(depth int) *Network {
	b := NewBuilder()
	for i := 0; i < depth; i++ {
		id := ConceptID(chainID(i))
		b.AddConcept(id, "gloss word", float64(depth-i), chainID(i))
		if i > 0 {
			b.IsA(id, ConceptID(chainID(i-1)))
		}
	}
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

func chainID(i int) string {
	return "c" + string(rune('a'+i/26)) + string(rune('a'+i%26)) + ".n.01"
}

// TestChainDepthProperty: in a chain, Depth(i) == i+1 and LCS(i, j) ==
// min(i, j).
func TestChainDepthProperty(t *testing.T) {
	f := func(di, ij uint8) bool {
		depth := 2 + int(di)%20
		n := chainNetwork(depth)
		i := int(ij) % depth
		j := (int(ij) / depth) % depth
		a, b := ConceptID(chainID(i)), ConceptID(chainID(j))
		if n.Depth(a) != i+1 {
			return false
		}
		lcs, ok := n.LCS(a, b)
		if !ok {
			return false
		}
		m := i
		if j < m {
			m = j
		}
		return lcs == ConceptID(chainID(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNeighborhoodMonotone: enlarging the radius never removes members, and
// distances are consistent.
func TestNeighborhoodMonotone(t *testing.T) {
	n := buildFigure2(t)
	prev := map[ConceptID]int{}
	for r := 0; r <= 4; r++ {
		cur := n.Neighborhood("actor.n.01", r)
		for id, d := range prev {
			if cd, ok := cur[id]; !ok || cd != d {
				t.Fatalf("radius %d lost or changed member %s", r, id)
			}
		}
		for _, d := range cur {
			if d > r {
				t.Fatalf("member beyond radius %d", r)
			}
		}
		prev = cur
	}
}
