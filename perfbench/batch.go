package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	xsdf "repro"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
)

// Batch workload sizes. On a 2-CPU Xeon VM a batch-warm pass over the 4x
// corpus (240 documents, ~20k nodes) takes about 130 ms and a cold-lexicon
// pass over 48 documents (7,248 nodes) about 5 s, plus 0.3 s to load its
// network, so a 30 s window holds about 200 and 6 passes. Set-up is timed batchSetups times before the
// window and as often after it, so that its median spans the host's
// slower and faster spells.
const (
	warmCorpusScale = 4
	coldLexiconSeed = 1
	coldConcepts    = 5000
	coldLemmas      = 1800 // the generator's default concepts-per-lemma ratio
	coldDocs        = 48
	batchSetups     = 5
	minPasses       = 3
)

// batchOptions is the Framework configuration of both batch workloads.
var batchOptions = xsdf.Options{Method: xsdf.Combined, Radius: 2}

// runBatchWarm: one shared Framework over the mini-WordNet corpus, warmed
// by an untimed pass, then timed DisambiguateBatch passes.
func runBatchWarm(cfg config, r *report) error {
	docs, err := corpusDocs(cfg.seed, warmCorpusScale)
	if err != nil {
		return err
	}
	lex, err := writeLexicon(cfg.workDir, "mini-wordnet", wordnet.Default())
	if err != nil {
		return err
	}
	return runBatch(cfg, r, batchWorkload{name: "batch-warm", docs: docs, lexicon: lex, warm: true})
}

// runColdLexicon: a 5,000-concept synthetic lexicon, loaded from its
// file again for each pass into a fresh Framework, so every pass starts
// on empty memos, the network's LCS memo included. The lexicon comes from a fixed generator seed and --seed draws
// the documents: which concepts head the Zipf draw is a property of the
// lexicon, and across generator seeds it moved f_gold between 0.14 and
// 0.36, far more than any change to the program should be allowed to.
func runColdLexicon(cfg config, r *report) error {
	net, err := wordnet.Generate(wordnet.GenerateConfig{
		Seed: coldLexiconSeed, Concepts: coldConcepts, Lemmas: coldLemmas, MaxBranch: 6, PartEvery: 7,
	})
	if err != nil {
		return err
	}
	lex, err := writeLexicon(cfg.workDir, "synthetic", net)
	if err != nil {
		return err
	}
	docs, err := zipfDocs(net, cfg.seed, coldDocs)
	if err != nil {
		return err
	}
	return runBatch(cfg, r, batchWorkload{name: "cold-lexicon", docs: docs, lexicon: lex, warm: false})
}

// batchWorkload is one batch workload's inputs. warm selects a shared
// Framework warmed during set-up; otherwise each pass gets a new one.
type batchWorkload struct {
	name    string
	docs    []doc
	lexicon string
	warm    bool
}

// batchPass is the outcome of one untraced pass.
type batchPass struct {
	dur            time.Duration
	docLatencies   []float64 // ms, per document: the sum of its stage times
	fingerprint    string
	gold           goldCount
	targets        int
	assigned       int
	failed         int
	degraded       int
	served         int
	simHits        uint64
	simMisses      uint64
	vecHits        uint64
	vecMisses      uint64
	failureExample error
}

func runBatch(cfg config, r *report, w batchWorkload) error {
	workers := runtime.NumCPU()
	nodes := 0
	for _, d := range w.docs {
		nodes += d.nodes()
	}
	r.note("%d documents, %d nodes per pass, %d workers", len(w.docs), nodes, workers)

	// Set-up: lexicon load and build, New, and for batch-warm the warm-up
	// pass. The last Framework set up before the window serves it.
	var setups, loads []float64
	setup := func() (*xsdf.Framework, error) {
		runtime.GC()
		start := time.Now()
		f, load, err := newFramework(w.lexicon)
		if err != nil {
			return nil, err
		}
		if w.warm {
			if p := onePass(f, w.docs, workers); p.failed > 0 {
				return nil, fmt.Errorf("warm-up pass: %d documents failed: %w", p.failed, p.failureExample)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		loads = append(loads, load.Seconds())
		return f, nil
	}
	var fw *xsdf.Framework
	for i := 0; i < batchSetups; i++ {
		f, err := setup()
		if err != nil {
			return err
		}
		fw = f
	}

	window := cfg.window
	if cfg.traced {
		window /= 2
	}
	var passes []batchPass
	var mem memWindow
	runtime.GC()
	for deadline := time.Now().Add(window); len(passes) < minPasses || time.Now().Before(deadline); {
		if !w.warm {
			// A fresh network as well as a fresh Framework: the network
			// holds the LCS memo, so a pass on a reused one would find
			// it warm. The replaced one is collected before the pass.
			f, _, err := newFramework(w.lexicon)
			if err != nil {
				return err
			}
			fw = f
			runtime.GC()
		}
		before := fw.CacheStats()
		mem.start()
		p := onePass(fw, w.docs, workers)
		mem.stop()
		after := fw.CacheStats()
		p.simHits, p.simMisses = after.SimHits-before.SimHits, after.SimMisses-before.SimMisses
		p.vecHits, p.vecMisses = after.VectorHits-before.VectorHits, after.VectorMisses-before.VectorMisses
		passes = append(passes, p)
	}
	heap := heapLiveMB()
	runtime.KeepAlive(fw)
	for i := 0; i < batchSetups; i++ {
		if _, err := setup(); err != nil {
			return err
		}
	}

	// Totals and correctness: every pass must assign identically.
	var thr, lat []float64
	var tot batchPass
	for i, p := range passes {
		if p.fingerprint != passes[0].fingerprint {
			r.fail("pass %d fingerprint %s differs from pass 0 %s", i, p.fingerprint, passes[0].fingerprint)
		}
		if p.failed > 0 {
			r.fail("pass %d: %d documents failed, e.g. %v", i, p.failed, p.failureExample)
		}
		thr = append(thr, float64(nodes)/p.dur.Seconds())
		lat = append(lat, p.docLatencies...)
		tot.targets += p.targets
		tot.assigned += p.assigned
		tot.failed += p.failed
		tot.degraded += p.degraded
		tot.served += p.served
		tot.simHits += p.simHits
		tot.simMisses += p.simMisses
		tot.vecHits += p.vecHits
		tot.vecMisses += p.vecMisses
	}
	attempted := len(passes) * len(w.docs)
	r.attempted, r.failed = attempted, tot.failed
	r.note("passes=%d fingerprint=%s", len(passes), passes[0].fingerprint)
	r.note("gold: correct=%d assigned=%d total=%d", passes[0].gold.correct, passes[0].gold.assigned, passes[0].gold.total)

	r.endToEnd("setup_s", median(setups), "s")
	r.endToEnd("throughput_nodes_per_s", median(thr), "nodes/s")
	r.endToEnd("latency_p50_ms", median(lat), "ms")
	r.endToEnd("f_gold", passes[0].gold.f1(), "F1")
	r.endToEnd("heap_live_mb", heap, "MB")

	targets := float64(tot.targets)
	simLookups := float64(tot.simHits + tot.simMisses)
	vecLookups := float64(tot.vecHits + tot.vecMisses)
	r.layer("ambiguity.targets_per_node", ratio(targets, float64(nodes*len(passes))), "ratio")
	r.layer("disambig.assigned_per_target", ratio(float64(tot.assigned), targets), "ratio")
	r.layer("simmeasure.lookups_per_target", ratio(simLookups, targets), "count")
	r.layer("simmeasure.hit_ratio", ratio(float64(tot.simHits), simLookups), "ratio")
	r.layer("simmeasure.misses_per_pass", float64(tot.simMisses)/float64(len(passes)), "count")
	r.layer("sphere.vector_lookups_per_target", ratio(vecLookups, targets), "count")
	r.layer("sphere.vector_hit_ratio", ratio(float64(tot.vecHits), vecLookups), "ratio")
	r.layer("semnet.load_s", median(loads), "s")
	r.layer("failed_share", ratio(float64(tot.failed), float64(attempted)), "ratio")
	r.layer("degraded_share", ratio(float64(tot.degraded), float64(tot.served)), "ratio")
	mem.report(r, nodes*len(passes))
	noServing(r)

	if !cfg.traced {
		return nil
	}
	return tracedBatch(cfg, r, w, fw.Network(), passes, workers, nodes)
}

// newFramework loads the lexicon file and builds a batch Framework on
// it, as a daemon start or a hot-swap does. load is the file load and
// network build.
func newFramework(lexicon string) (*xsdf.Framework, time.Duration, error) {
	start := time.Now()
	net, _, err := xsdf.ReadNetworkFile(lexicon)
	if err != nil {
		return nil, 0, err
	}
	load := time.Since(start)
	o := batchOptions
	o.Network = net
	fw, err := xsdf.New(o)
	return fw, load, err
}

// onePass parses docs (untimed), mapping gold senses, then times one
// DisambiguateBatch over them.
func onePass(fw *xsdf.Framework, docs []doc, workers int) batchPass {
	var p batchPass
	trees := make([]*xmltree.Tree, len(docs))
	for i, d := range docs {
		t, err := fw.ParseTree(strings.NewReader(d.xml))
		if err == nil {
			err = mapGold(t, d)
		}
		if err != nil {
			p.failed++
			p.failureExample = fmt.Errorf("doc %d: %w", i, err)
			return p
		}
		trees[i] = t
	}
	start := time.Now()
	results, err := fw.DisambiguateBatch(trees, workers)
	p.dur = time.Since(start)
	var be *xsdf.BatchError
	if err != nil && !errors.As(err, &be) {
		p.failed, p.failureExample = len(docs), err
		return p
	}
	fp := newFingerprint()
	for i, res := range results {
		if res == nil {
			p.failed++
			if be != nil && p.failureExample == nil {
				p.failureExample = be
			}
			continue
		}
		p.served++
		if res.Degraded != xsdf.DegradeNone {
			p.degraded++
		}
		var d time.Duration
		for _, st := range res.Stages {
			d += st.Duration
		}
		p.docLatencies = append(p.docLatencies, float64(d)/float64(time.Millisecond))
		p.targets += res.Targets
		p.assigned += res.Assigned
		fp.addTree(trees[i])
		p.gold.addTree(trees[i])
	}
	p.fingerprint = fp.sum()
	return p
}

// tracedBatch runs the traced half of the window: layer-by-layer passes
// over the same documents, for cold-lexicon on a freshly loaded network
// with fresh memos per pass, for batch-warm on one warmed set, as the
// untraced passes had.
func tracedBatch(cfg config, r *report, w batchWorkload, net *xsdf.Network, untraced []batchPass, workers, nodes int) error {
	var lr *layerRun
	if w.warm {
		lr = newLayerRun(net, batchOptions)
		if _, err := lr.pass(w.docs, workers); err != nil {
			return err
		}
	}
	lt := layerTimes{}
	var scoring []float64
	var last tracedPass
	passes := 0
	for deadline := time.Now().Add(cfg.window / 2); passes < minPasses || time.Now().Before(deadline); passes++ {
		if !w.warm {
			fresh, _, err := xsdf.ReadNetworkFile(w.lexicon)
			if err != nil {
				return err
			}
			lr = newLayerRun(fresh, batchOptions)
			runtime.GC()
		}
		p, err := lr.pass(w.docs, workers)
		if err != nil {
			return err
		}
		if p.fingerprint != untraced[0].fingerprint {
			r.fail("traced fingerprint %s differs from untraced %s", p.fingerprint, untraced[0].fingerprint)
		}
		lt.add(p.recs...)
		scoring = append(scoring, p.scoring.Seconds())
		last = p
	}
	var plain []float64
	for _, p := range untraced {
		plain = append(plain, p.dur.Seconds())
	}
	layerReport(r, lt, nodes*passes)
	r.layer("trace.overhead_ratio", median(scoring)/median(plain), "ratio")
	path, err := writeSpans(traceFile(w.name, cfg.seed), last.recs)
	if err != nil {
		return err
	}
	r.note("traced passes=%d, spans of the last pass in %s", passes, path)
	return nil
}

// noServing reports the serving-path layers a batch workload bypasses.
// Zero is the prediction for them on these workloads.
func noServing(r *report) {
	for _, m := range []struct{ name, unit string }{
		{"server.handle_us_p50", "us"}, {"server.outside_stages_us_p50", "us"}, {"server.rejected", "count"},
		{"wire.encode_us_p50", "us"}, {"wire.decode_us_p50", "us"}, {"wire.transport_us_p50", "us"},
		{"loadgen.offered_rps", "1/s"}, {"loadgen.achieved_over_offered", "ratio"}, {"loadgen.late_ms_p99", "ms"},
		{"loadgen.requests", "count"}, {"loadgen.latency_p90_ms", "ms"}, {"loadgen.latency_p99_ms", "ms"},
	} {
		r.layer(m.name, 0, m.unit)
	}
}
