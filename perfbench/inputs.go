package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"

	xsdf "repro"
	"repro/internal/corpus"
	"repro/internal/lingproc"
	"repro/internal/semnet"
	"repro/internal/xmltree"
)

// doc is one input document as the program receives it: XML text. gold
// holds the generator's sense for each node, by preorder index of the
// parsed (not yet pre-processed) tree; the benchmark keeps it to itself.
type doc struct {
	xml  string
	gold []string
}

func (d doc) nodes() int { return len(d.gold) }

// parseOptions are the options Framework.ParseTree parses with at the
// default limits, for the traced run's own calls into xmltree.
func parseOptions() xmltree.ParseOptions {
	return xmltree.ParseOptions{IncludeContent: true, Tokenize: lingproc.Tokenize}
}

// serialize writes a generated tree as XML and checks the round trip:
// the parsed tree must have the same node count and, index by index in
// preorder, the same case-folded Raw (the tokenizer lower-cases tokens).
// Only then can gold senses be carried over by index.
func serialize(name string, t *xmltree.Tree) (doc, error) {
	var sb strings.Builder
	if err := t.WriteXML(&sb, false); err != nil {
		return doc{}, fmt.Errorf("%s: writing XML: %w", name, err)
	}
	parsed, err := xmltree.ParseString(sb.String(), parseOptions())
	if err != nil {
		return doc{}, fmt.Errorf("%s: parsing own XML: %w", name, err)
	}
	gen, got := t.Nodes(), parsed.Nodes()
	if len(gen) != len(got) {
		return doc{}, fmt.Errorf("%s: XML round trip has %d nodes, generated %d", name, len(got), len(gen))
	}
	d := doc{xml: sb.String(), gold: make([]string, len(gen))}
	for i, n := range gen {
		if strings.ToLower(n.Raw) != strings.ToLower(got[i].Raw) {
			return doc{}, fmt.Errorf("%s: XML round trip changed node %d from %q to %q", name, i, n.Raw, got[i].Raw)
		}
		d.gold[i] = n.Gold
	}
	return d, nil
}

// mapGold copies d's gold senses onto a freshly parsed tree of d.
func mapGold(t *xmltree.Tree, d doc) error {
	nodes := t.Nodes()
	if len(nodes) != len(d.gold) {
		return fmt.Errorf("parsed %d nodes, expected %d", len(nodes), len(d.gold))
	}
	for i, n := range nodes {
		n.Gold = d.gold[i]
	}
	return nil
}

// corpusDocs is the mini-WordNet test corpus (Table 3 grammars) at scale
// times its document count, as XML.
func corpusDocs(seed int64, scale int) ([]doc, error) {
	gen := corpus.GenerateScaled(seed, scale)
	docs := make([]doc, len(gen))
	for i, g := range gen {
		d, err := serialize(g.Name, g.Tree)
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	return docs, nil
}

// writeLexicon writes net in the checksummed lexicon file format the
// program loads with ReadNetworkFile.
func writeLexicon(dir, name string, net *semnet.Network) (string, error) {
	path := filepath.Join(dir, name+".lex")
	if _, err := xsdf.WriteNetworkFile(path, net, name); err != nil {
		return "", fmt.Errorf("writing lexicon %s: %w", name, err)
	}
	return path, nil
}

// zipfDocs generates n documents of 151 nodes over net's vocabulary.
// Every tag and token is a concept drawn Zipf(1.1) over the network's
// concept order (general concepts first, as wordnet.Generate builds
// them), written as one of its lemmas; that concept is the node's gold
// sense. The draw is systematic: one seeded offset picks the
// (offset+i)/total quantiles of the distribution, and the seed shuffles
// them over the node positions. Every seed so gets nearly the same
// multiset of concepts, arranged differently. Independent draws let a few
// rare, costly concepts swing a pass's cost by 20% from seed to seed.
// Shape: a root, 10 sections of 2 tokens and 3 items, each item holding
// 3 tokens.
func zipfDocs(net *semnet.Network, seed int64, n int) ([]doc, error) {
	const nodesPerDoc = 151
	rng := rand.New(rand.NewSource(seed))
	ids := net.Concepts()
	cum := make([]float64, len(ids))
	total := 0.0
	for k := range ids {
		total += math.Pow(float64(k+1), -1.1)
		cum[k] = total
	}
	draws := make([]int, n*nodesPerDoc)
	offset, k := rng.Float64(), 0
	for i := range draws {
		q := (offset + float64(i)) / float64(len(draws)) * total
		for k < len(cum)-1 && cum[k] < q {
			k++
		}
		draws[i] = k
	}
	rng.Shuffle(len(draws), func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })

	next := 0
	draw := func(kind xmltree.Kind) *xmltree.Node {
		c := net.Concept(ids[draws[next]])
		next++
		w := c.Lemmas[rng.Intn(len(c.Lemmas))]
		return &xmltree.Node{Raw: w, Label: w, Kind: kind, Gold: string(c.ID)}
	}
	withTokens := func(el *xmltree.Node, k int) *xmltree.Node {
		for i := 0; i < k; i++ {
			el.AddChild(draw(xmltree.Token))
		}
		return el
	}
	docs := make([]doc, n)
	for i := range docs {
		root := draw(xmltree.Element)
		for s := 0; s < 10; s++ {
			sec := withTokens(draw(xmltree.Element), 2)
			for it := 0; it < 3; it++ {
				sec.AddChild(withTokens(draw(xmltree.Element), 3))
			}
			root.AddChild(sec)
		}
		d, err := serialize(fmt.Sprintf("zipf-%03d", i), xmltree.New(root))
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	return docs, nil
}
