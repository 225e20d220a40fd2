package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/eval"
	"repro/internal/xmltree"
)

// fingerprint is the sense fingerprint of a run: SHA-256 over label,
// sense and %.17g score of every assigned node in preorder, document
// by document in input order. Equal fingerprints mean bit-identical
// assignments.
type fingerprint struct{ h hash.Hash }

func newFingerprint() fingerprint { return fingerprint{sha256.New()} }

func (f fingerprint) addTree(t *xmltree.Tree) {
	for _, n := range t.Nodes() {
		if n.Sense != "" {
			fmt.Fprintf(f.h, "%s\x00%s\x00%.17g\n", n.Label, n.Sense, n.SenseScore)
		}
	}
	f.h.Write([]byte{0x1e})
}

func (f fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// goldCount tallies assignments against the generator's gold senses.
type goldCount struct{ correct, assigned, total int }

func (g *goldCount) addTree(t *xmltree.Tree) {
	for _, n := range t.Nodes() {
		if n.Gold == "" {
			continue
		}
		g.total++
		if n.Sense != "" {
			g.assigned++
			if n.Sense == n.Gold {
				g.correct++
			}
		}
	}
}

func (g goldCount) f1() float64 { return eval.Score(g.correct, g.assigned, g.total).F }

// assignment is one assigned node as the wire reports it.
type assignment struct {
	label, sense string
	score        float64
}

// assignments lists t's assigned nodes in preorder, as the server's
// response does.
func assignments(t *xmltree.Tree) []assignment {
	var out []assignment
	for _, n := range t.Nodes() {
		if n.Sense != "" {
			out = append(out, assignment{n.Label, n.Sense, n.SenseScore})
		}
	}
	return out
}
