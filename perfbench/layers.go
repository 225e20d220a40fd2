package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	xsdf "repro"
	"repro/internal/ambiguity"
	"repro/internal/disambig"
	"repro/internal/lingproc"
	"repro/internal/semnet"
	"repro/internal/sphere"
	"repro/internal/xmltree"
)

// disambigOptions are the disambiguation options xsdf.New derives from
// the options the workloads set (Method and Radius; every other field at
// its zero value). The traced run's fingerprint must equal the
// Framework's, which shows the two run the same computation.
func disambigOptions(o xsdf.Options) disambig.Options {
	d := disambig.DefaultOptions()
	d.Method = o.Method
	if o.Radius > 1 {
		d.Radius = o.Radius
	}
	d.VectorSim = sphere.Cosine
	return d
}

// layerRun drives the pipeline's layers one public call at a time, in
// the order the Framework's stages run them: xmltree.Parse, then per
// document lingproc.Processor.ProcessTree, ambiguity.Select (equal
// weights, Thresh_Amb 0) and disambig.Disambiguator.Node per target.
type layerRun struct {
	net   *semnet.Network
	opts  disambig.Options
	cache *disambig.Cache
	proc  *lingproc.Processor
}

// newLayerRun starts with empty memos, as a new Framework does.
func newLayerRun(net *semnet.Network, o xsdf.Options) *layerRun {
	opts := disambigOptions(o)
	return &layerRun{
		net:   net,
		opts:  opts,
		cache: disambig.NewCache(net, opts.SimWeights),
		proc:  lingproc.NewProcessor(net),
	}
}

// tracedPass is one traced pass over docs: its spans, the wall time of
// the scoring phase (everything after parsing, the part an untraced pass
// times), and the fingerprint of its assignments.
type tracedPass struct {
	recs        []*recorder
	scoring     time.Duration
	fingerprint string
}

// pass parses docs serially, then scores them on workers goroutines.
func (l *layerRun) pass(docs []doc, workers int) (tracedPass, error) {
	base := time.Now()
	parseRec := newRecorder(base)
	trees := make([]*xmltree.Tree, len(docs))
	for i, d := range docs {
		id := parseRec.begin(spanParse, int32(i), -1)
		t, err := xmltree.ParseString(d.xml, parseOptions())
		parseRec.end(id)
		if err != nil {
			return tracedPass{}, fmt.Errorf("doc %d: %w", i, err)
		}
		if err := mapGold(t, d); err != nil {
			return tracedPass{}, fmt.Errorf("doc %d: %w", i, err)
		}
		trees[i] = t
	}

	recs := make([]*recorder, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range recs {
		rec := newRecorder(base)
		recs[w] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(trees); i = int(next.Add(1) - 1) {
				l.doc(rec, int32(i), trees[i])
			}
		}()
	}
	wg.Wait()
	p := tracedPass{recs: append(recs, parseRec), scoring: time.Since(start)}
	fp := newFingerprint()
	for _, t := range trees {
		fp.addTree(t)
	}
	p.fingerprint = fp.sum()
	return p, nil
}

// doc runs one parsed document through the scoring layers.
func (l *layerRun) doc(rec *recorder, i int32, t *xmltree.Tree) {
	root := rec.begin(spanDoc, i, -1)
	s := rec.begin(spanProcess, i, root)
	l.proc.ProcessTree(t)
	rec.end(s)

	s = rec.begin(spanSelect, i, root)
	targets := ambiguity.Select(t, l.net, ambiguity.EqualWeights(), 0)
	rec.end(s)

	s = rec.begin(spanDisambig, i, root)
	dis := disambig.NewShared(l.cache, l.opts)
	for _, x := range targets {
		n := rec.begin(spanNode, i, s)
		if sense, ok := dis.Node(x); ok {
			x.Sense = sense.ID()
			x.SenseScore = sense.Score
		}
		rec.end(n)
	}
	rec.end(s)
	rec.end(root)
}

// layerReport adds the per-layer timings of traced passes over docs.
func layerReport(r *report, lt layerTimes, parsedNodes int) {
	n := float64(parsedNodes)
	r.layer("xmltree.parse_us_per_node", ratio(lt.selfMicros(spanParse), n), "us")
	r.layer("lingproc.process_us_per_node", ratio(lt.selfMicros(spanProcess), n), "us")
	r.layer("ambiguity.select_us_per_node", ratio(lt.selfMicros(spanSelect), n), "us")
	r.layer("disambig.node_us_p50", lt.durQuantile(spanNode, 0.5), "us")
	r.layer("disambig.node_us_p99", lt.durQuantile(spanNode, 0.99), "us")
	if t := lt[spanNode]; t != nil {
		r.note("disambig.node spans: %d", t.count)
	}
}

// traceFile names the span dump of a run.
func traceFile(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d.jsonl", workload, seed)
}
