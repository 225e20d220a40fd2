package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/lingproc"
	"repro/internal/semnet"
	"repro/internal/xmltree"
)

// versionedNet builds a small lexicon whose concept IDs all carry tag as
// a suffix while the lemma vocabulary is identical across tags: two
// builds with different tags are interchangeable as networks but every
// assigned sense betrays which build scored it. That makes epoch mixing
// observable end to end — if any node of a run were scored against the
// other snapshot, its sense suffix would not match the run's stamp.
func versionedNet(t testing.TB, tag string) *semnet.Network {
	t.Helper()
	b := semnet.NewBuilder()
	root := semnet.ConceptID("entity." + tag)
	b.AddConcept(root, "the shared root concept of every word here", 1000, "entity")
	for i := 0; i < 16; i++ {
		lemma := fmt.Sprintf("word%c", rune('a'+i))
		one := semnet.ConceptID(fmt.Sprintf("%s.one.%s", lemma, tag))
		two := semnet.ConceptID(fmt.Sprintf("%s.two.%s", lemma, tag))
		b.AddConcept(one, fmt.Sprintf("the dominant sense of %s in running text", lemma), float64(60+i), lemma)
		b.AddConcept(two, fmt.Sprintf("a rare alternative reading of %s", lemma), float64(5+i), lemma)
		b.AddEdge(one, semnet.Hypernym, root)
		b.AddEdge(two, semnet.Hypernym, root)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// versionedDoc is a probe document over the shared vocabulary.
func versionedDoc(seed int) string {
	var b strings.Builder
	b.WriteString("<doc>")
	for i := 0; i < 6; i++ {
		lemma := fmt.Sprintf("word%c", rune('a'+(seed+i*3)%16))
		fmt.Fprintf(&b, "<%s>%s</%s>", lemma, lemma, lemma)
	}
	b.WriteString("</doc>")
	return b.String()
}

// epochIdentity is what the swap schedule recorded for one epoch: the
// concept-ID tag of the network serving it and the version label the
// swap reported.
type epochIdentity struct{ tag, version string }

// checkRunConsistency asserts the no-mixed-versions invariant on one
// finished run: every assigned sense carries exactly the tag of the
// epoch the result is stamped with.
func checkRunConsistency(t *testing.T, res *Result, epochTag *sync.Map) {
	t.Helper()
	if res == nil {
		return
	}
	v, ok := epochTag.Load(res.LexiconEpoch)
	if !ok {
		t.Errorf("result stamped with unknown epoch %d", res.LexiconEpoch)
		return
	}
	id := v.(epochIdentity)
	if res.LexiconVersion != id.version {
		t.Errorf("epoch %d stamped version %q, swap recorded %q", res.LexiconEpoch, res.LexiconVersion, id.version)
	}
	for _, n := range res.Tree.Nodes() {
		if n.Sense == "" {
			continue
		}
		// Compound senses ("a+b") still end in the network tag.
		if !strings.HasSuffix(n.Sense, "."+id.tag) {
			t.Errorf("epoch %d (%s) run assigned sense %q from another snapshot", res.LexiconEpoch, id.tag, n.Sense)
		}
	}
}

// TestSnapshotPinningUnderConcurrentSwaps hammers concurrent lexicon
// swaps against in-flight unary, batch, and subtree traffic (run under
// -race in CI). Every run must complete on exactly one lexicon version:
// all senses of one result carry one version tag, and that tag is the
// one the swap sequence recorded for the result's stamped epoch. Zero
// request failures are tolerated — a swap must never break traffic.
func TestSnapshotPinningUnderConcurrentSwaps(t *testing.T) {
	netA, netB := versionedNet(t, "v1"), versionedNet(t, "v2")
	fw, err := New(netA, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var epochTag sync.Map
	epochTag.Store(uint64(1), epochIdentity{tag: "v1", version: fw.LexiconInfo().Version})

	swaps := 30
	if testing.Short() {
		swaps = 8
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < swaps; i++ {
			net, tag := netB, "v2"
			if i%2 == 1 {
				net, tag = netA, "v1"
			}
			// Record the identity before publishing it: a run can finish
			// on the new snapshot before ReloadNetwork returns here.
			// Epochs count successful swaps from 1.
			epoch := uint64(i) + 2
			epochTag.Store(epoch, epochIdentity{tag: tag, version: tag})
			info, err := fw.ReloadNetwork(context.Background(), net, tag, "pinning-test", ReloadOptions{})
			if err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			if info.Epoch != epoch || info.Version != tag {
				t.Errorf("swap %d published epoch %d version %q, want %d %q", i, info.Epoch, info.Version, epoch, tag)
			}
		}
	}()

	parse := func(doc string) *xmltree.Tree {
		tr, err := xmltree.Parse(strings.NewReader(doc), xmltree.ParseOptions{
			IncludeContent: true, Tokenize: lingproc.Tokenize,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 3 {
				case 0: // unary
					res, err := fw.ProcessTreeContext(context.Background(), parse(versionedDoc(w+i)))
					if err != nil {
						t.Errorf("worker %d unary: %v", w, err)
						return
					}
					checkRunConsistency(t, res, &epochTag)
				case 1: // batch
					trees := []*xmltree.Tree{parse(versionedDoc(i)), parse(versionedDoc(i + 1)), parse(versionedDoc(i + 2))}
					results, err := fw.ProcessTreesContext(context.Background(), trees, 3, 0)
					if err != nil {
						t.Errorf("worker %d batch: %v", w, err)
						return
					}
					for _, res := range results {
						checkRunConsistency(t, res, &epochTag)
					}
				case 2: // subtree scan: each subtree is its own pinned run
					sc := xmltree.NewSubtreeScanner(strings.NewReader(versionedDoc(w*7+i)), xmltree.SubtreeOptions{
						ParseOptions: xmltree.ParseOptions{IncludeContent: true, Tokenize: lingproc.Tokenize},
					})
					_, err := fw.ProcessSubtrees(context.Background(), sc, func(sr SubtreeResult) error {
						if sr.Err != nil {
							return sr.Err
						}
						checkRunConsistency(t, sr.Result, &epochTag)
						return nil
					})
					if err != nil {
						t.Errorf("worker %d subtree: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// All traffic drained: the retirement backlog must be empty — every
	// retired snapshot's last pin was released — and the swap counter
	// must match the schedule.
	st := fw.LexiconStats()
	if st.RetiredAwaitingDrain != 0 {
		t.Errorf("%d retired snapshots still awaiting drain after all runs finished", st.RetiredAwaitingDrain)
	}
	if st.Swaps != uint64(swaps) || st.Rollbacks != 0 {
		t.Errorf("swaps=%d rollbacks=%d, want %d/0", st.Swaps, st.Rollbacks, swaps)
	}
	if got := fw.LexiconInfo().Epoch; got != uint64(swaps)+1 {
		t.Errorf("final epoch %d, want %d", got, swaps+1)
	}
}
