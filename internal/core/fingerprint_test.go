package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/disambig"
	"repro/internal/faultinject"
	"repro/internal/wordnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current code")

// fingerprintGolden pins the sense assignments and bit-exact scores of the
// whole scoring core. Unlike the differential tests, both sides of which
// call the same disambig/simmeasure/semnet code, this file is a committed
// artifact: any change to what the core computes changes a digest.
const fingerprintGolden = "testdata/sense_fingerprint.golden"

// senseFingerprints returns one line per configuration (3 methods × links
// on/off): the SHA-256 over every document of the embedded corpus (seed 1,
// all 10 datasets) of its name and senseFingerprint. The embedded corpus
// carries no ID/IDREF links, so each links=true row equals its links=false
// row: it pins that FollowLinks changes nothing on a link-free document.
// prepare, when non-nil, runs on each configuration's Framework before
// the fingerprinted pass.
func senseFingerprints(t *testing.T, prepare func(*Framework)) string {
	t.Helper()
	var out strings.Builder
	for _, method := range []disambig.Method{
		disambig.ConceptBased, disambig.ContextBased, disambig.Combined,
	} {
		for _, links := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Disambiguation.Method = method
			opts.Disambiguation.FollowLinks = links
			fw, err := New(wordnet.Default(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if prepare != nil {
				prepare(fw)
			}
			h := sha256.New()
			for _, d := range corpus.Generate(1) {
				if links {
					d.Tree.ResolveLinks()
				}
				if _, err := fw.ProcessTree(d.Tree); err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
				fmt.Fprintf(h, "%s\n%s", d.Name, senseFingerprint(d.Tree))
			}
			fmt.Fprintf(&out, "method=%v links=%v %x\n", method, links, h.Sum(nil))
		}
	}
	return out.String()
}

// TestSenseFingerprintGolden checks the corpus-wide sense fingerprint
// against the committed golden file. Regenerate it, only for a change
// meant to alter scoring, with: go test ./internal/core -run
// TestSenseFingerprintGolden -update
func TestSenseFingerprintGolden(t *testing.T) {
	got := senseFingerprints(t, nil)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkFingerprintGolden(t, got)
}

func checkFingerprintGolden(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("sense fingerprint diverged from %s:\ngot:\n%swant:\n%s", fingerprintGolden, got, want)
	}
}

// TestPoisonNeverPersists runs the corpus through each Framework with
// cache-read poisoning on, then once more with faults off: the clean pass
// must reproduce the golden fingerprint, so no poisoned value entered a
// shared memo. The poisoned passes must differ from it, or the test would
// prove nothing.
func TestPoisonNeverPersists(t *testing.T) {
	poisoned := 0
	got := senseFingerprints(t, func(fw *Framework) {
		restore := faultinject.Install(faultinject.New(faultinject.Config{Seed: 7, CachePoisonRate: 0.2}))
		defer restore()
		for _, d := range corpus.Generate(1) {
			if _, err := fw.ProcessTree(d.Tree); err != nil {
				t.Fatalf("%s: poisoned pass: %v", d.Name, err)
			}
			for _, n := range d.Tree.Nodes() {
				if n.SenseScore < 0 {
					poisoned++
				}
			}
		}
	})
	if poisoned == 0 {
		t.Fatal("no poisoned score reached a node: the poisoned passes exercised nothing")
	}
	checkFingerprintGolden(t, got)
}
