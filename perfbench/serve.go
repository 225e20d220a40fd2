package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	xsdf "repro"
	"repro/internal/server"
	"repro/internal/wordnet"
)

// serveSetups is how often serve-unary's set-up is timed before the
// window and again after it. One takes about 20 ms.
const serveSetups = 15

// serveRate is the offered rate of serve-unary, in requests per second:
// about a third of saturation. On a 2-CPU Xeon VM, with the loopback
// client in the same process, p50 stayed near 1.3 ms from 400 to 1,200
// req/s and rose to 2.9 ms at 1,600 and 10 ms at 2,000.
const serveRate = 600

// serveOptions are xsdfd's defaults: concept-based scoring, radius 1,
// the degradation ladder on.
var serveOptions = xsdf.Options{Method: xsdf.ConceptBased, Radius: 1, Degrade: xsdf.DegradeOptions{Enabled: true}}

// runServeUnary serves the mini-WordNet corpus from an in-process xsdfd
// (server.New with xsdfd's defaults on a loopback listener) under an
// open-loop POST /v1/disambiguate load.
func runServeUnary(cfg config, r *report) error {
	docs, err := corpusDocs(cfg.seed, 1)
	if err != nil {
		return err
	}
	lex, err := writeLexicon(cfg.workDir, "mini-wordnet", wordnet.Default())
	if err != nil {
		return err
	}
	want, err := libraryResults(lex, docs)
	if err != nil {
		return err
	}
	r.note("%d documents, fingerprint=%s", len(docs), want.fingerprint)
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(docs))

	// Set-up: lexicon load and build, New, server.New, and the listener
	// up until /readyz answers 200. The last server set up before the
	// window serves it; the set-ups after it span the host's slower and
	// faster spells.
	var setups, loads []float64
	setup := func() (*served, error) {
		runtime.GC()
		start := time.Now()
		s, load, err := startServer(lex)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		loads = append(loads, load.Seconds())
		return s, nil
	}
	// repeat sets up n times and keeps the last server running.
	repeat := func(n int) (*served, error) {
		for i := 1; i < n; i++ {
			s, err := setup()
			if err != nil {
				return nil, err
			}
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		return setup()
	}
	sv, err := repeat(serveSetups)
	if err != nil {
		return err
	}
	defer sv.stop()

	conns := runtime.NumCPU()
	window := cfg.window
	if cfg.traced {
		window /= 2
	}
	var mem memWindow
	runtime.GC()
	before := sv.fw.CacheStats()
	mem.start()
	plain := loadWindow(sv.url, false, conns, window, docs, order)
	mem.stop()
	after := sv.fw.CacheStats()
	w := plain.tally(r, want)
	requests := len(plain.replies)
	r.attempted, r.failed = requests, w.failed
	if w.failed > 0 {
		r.fail("%d of %d requests failed (%d rejected)", w.failed, requests, w.rejected)
	}
	if err := plain.load.shortfall(); err != nil {
		r.fail("%v", err)
	}
	lat := plain.latenciesMS()
	// The replies are the benchmark's memory, not the server's.
	plain.replies = nil
	heap := heapLiveMB()
	extra, err := repeat(serveSetups)
	if err != nil {
		return err
	}
	if err := extra.stop(); err != nil {
		return err
	}
	r.note("requests=%d latency p50=%.3f ms p90=%.3f ms (%d samples beyond) p99=%.3f ms (%d samples beyond)",
		len(lat), quantile(lat, 0.5), quantile(lat, 0.9), beyond(len(lat), 0.9), quantile(lat, 0.99), beyond(len(lat), 0.99))

	r.endToEnd("setup_s", median(setups), "s")
	r.endToEnd("throughput_nodes_per_s", float64(w.nodes)/window.Seconds(), "nodes/s")
	r.endToEnd("latency_p50_ms", quantile(lat, 0.5), "ms")
	r.endToEnd("f_gold", w.gold.f1(), "F1")
	r.endToEnd("heap_live_mb", heap, "MB")

	targets := float64(w.targets)
	simHits, simMisses := after.SimHits-before.SimHits, after.SimMisses-before.SimMisses
	vecHits, vecMisses := after.VectorHits-before.VectorHits, after.VectorMisses-before.VectorMisses
	r.layer("ambiguity.targets_per_node", ratio(targets, float64(w.nodes)), "ratio")
	r.layer("disambig.assigned_per_target", ratio(float64(w.assigned), targets), "ratio")
	r.layer("simmeasure.lookups_per_target", ratio(float64(simHits+simMisses), targets), "count")
	r.layer("simmeasure.hit_ratio", ratio(float64(simHits), float64(simHits+simMisses)), "ratio")
	r.layer("simmeasure.misses_per_pass", float64(simMisses), "count")
	r.layer("sphere.vector_lookups_per_target", ratio(float64(vecHits+vecMisses), targets), "count")
	r.layer("sphere.vector_hit_ratio", ratio(float64(vecHits), float64(vecHits+vecMisses)), "ratio")
	r.layer("semnet.load_s", median(loads), "s")
	r.layer("server.rejected", float64(w.rejected), "count")
	r.layer("failed_share", ratio(float64(w.failed), float64(requests)), "ratio")
	r.layer("degraded_share", ratio(float64(w.degraded), float64(w.served)), "ratio")
	r.layer("loadgen.offered_rps", plain.load.offered, "1/s")
	r.layer("loadgen.achieved_over_offered", plain.load.achieved()/plain.load.offered, "ratio")
	r.layer("loadgen.late_ms_p99", quantile(plain.load.lateMS, 0.99), "ms")
	r.layer("loadgen.requests", float64(requests), "count")
	r.layer("loadgen.latency_p90_ms", quantile(lat, 0.9), "ms")
	r.layer("loadgen.latency_p99_ms", quantile(lat, 0.99), "ms")
	mem.report(r, w.nodes)

	if !cfg.traced {
		return nil
	}
	return tracedServe(cfg, r, sv, docs, order, want, quantile(lat, 0.5))
}

// beyond is the number of samples above the q-quantile of n samples.
func beyond(n int, q float64) int { return n - int(q*float64(n)+0.5) }

// reference is the library's answer for every document: what each
// full-quality response must equal, its gold tally, and the labels and
// gold senses of its nodes in preorder; plus the fingerprint.
type reference struct {
	assignments [][]assignment
	gold        []goldCount
	labels      [][]string
	golds       [][]string
	nodes       []int
	fingerprint string
}

// libraryResults disambiguates docs with a Framework configured as the
// server's.
func libraryResults(lex string, docs []doc) (reference, error) {
	net, _, err := xsdf.ReadNetworkFile(lex)
	if err != nil {
		return reference{}, err
	}
	o := serveOptions
	o.Network = net
	fw, err := xsdf.New(o)
	if err != nil {
		return reference{}, err
	}
	ref := reference{
		assignments: make([][]assignment, len(docs)),
		gold:        make([]goldCount, len(docs)),
		labels:      make([][]string, len(docs)),
		golds:       make([][]string, len(docs)),
		nodes:       make([]int, len(docs)),
	}
	fp := newFingerprint()
	for i, d := range docs {
		t, err := fw.ParseTree(strings.NewReader(d.xml))
		if err != nil {
			return reference{}, fmt.Errorf("doc %d: %w", i, err)
		}
		if err := mapGold(t, d); err != nil {
			return reference{}, fmt.Errorf("doc %d: %w", i, err)
		}
		res, err := fw.DisambiguateTree(t)
		if err != nil {
			return reference{}, fmt.Errorf("doc %d: %w", i, err)
		}
		ref.assignments[i] = assignments(res.Tree)
		ref.gold[i].addTree(res.Tree)
		for _, n := range res.Tree.Nodes() {
			ref.labels[i] = append(ref.labels[i], n.Label)
			ref.golds[i] = append(ref.golds[i], n.Gold)
		}
		ref.nodes[i] = d.nodes()
		fp.addTree(res.Tree)
	}
	ref.fingerprint = fp.sum()
	return ref, nil
}

// served is a running in-process xsdfd.
type served struct {
	fw   *xsdf.Framework
	srv  *server.Server
	url  string
	done chan error
}

// startServer builds the Framework and server as xsdfd does with
// -lexicon, serves on a loopback listener, and returns once /readyz
// answers 200. load is the lexicon load and build time.
func startServer(lex string) (*served, time.Duration, error) {
	start := time.Now()
	lexNet, _, err := xsdf.ReadNetworkFile(lex)
	if err != nil {
		return nil, 0, err
	}
	load := time.Since(start)
	o := serveOptions
	o.Network = lexNet
	fw, err := xsdf.New(o)
	if err != nil {
		return nil, 0, err
	}
	// xsdfd logs one text line per request at its default level; the
	// lines are formatted as there and discarded. Its -default-timeout
	// is 10 s, where server.New would default to MaxTimeout.
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv, err := server.New(server.Config{Framework: fw, DefaultTimeout: 10 * time.Second, Logger: logger})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &served{fw: fw, srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	if err := waitReady(s.url); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, load, nil
}

func waitReady(url string) error {
	c := &http.Client{Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	return errors.New("server not ready after 10s")
}

// stop drains the server and waits for its Serve goroutine.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// loadRun is one open-loop window's replies, indexed by arrival.
type loadRun struct {
	load    loadStats
	replies []reply
	docOf   []int
}

// loadWindow offers serveRate requests per second for window, cycling
// through docs in order.
func loadWindow(baseURL string, traced bool, conns int, window time.Duration, docs []doc, order []int) loadRun {
	c := newUnaryClient(baseURL, conns, traced)
	defer c.close()
	n := int(serveRate * window.Seconds())
	run := loadRun{replies: make([]reply, n), docOf: make([]int, n)}
	run.load = openLoop(serveRate, window, func(i int, due time.Time) {
		d := order[i%len(order)]
		run.docOf[i] = d
		run.replies[i] = c.post(fmt.Sprintf("b%d", i), docs[d].xml, due)
	})
	run.replies, run.docOf = run.replies[:run.load.sent], run.docOf[:run.load.sent]
	return run
}

// latenciesMS lists every reply's latency; a failed request counts as
// infinitely late.
func (l loadRun) latenciesMS() []float64 {
	out := make([]float64, len(l.replies))
	for i, rp := range l.replies {
		out[i] = float64(rp.latency) / float64(time.Millisecond)
		if rp.err != nil || rp.status != http.StatusOK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// counts is the accounting of one window's replies.
type counts struct {
	failed, rejected, served, degraded int
	nodes, targets, assigned           int
	gold                               goldCount
}

// tally checks every reply: non-200s, transport failures and
// undecodable bodies fail; a full-quality result must equal the library
// result for its document. The gold tally covers every served result,
// degraded ones included.
func (l loadRun) tally(r *report, want reference) counts {
	var t counts
	mismatches := 0
	for i, rp := range l.replies {
		d := l.docOf[i]
		switch {
		case rp.err != nil:
			t.failed++
			continue
		case rp.status == http.StatusTooManyRequests || rp.status == http.StatusServiceUnavailable:
			t.failed++
			t.rejected++
			continue
		case rp.status != http.StatusOK:
			t.failed++
			continue
		}
		t.served++
		t.nodes += want.nodes[d]
		t.targets += rp.res.Targets
		t.assigned += rp.res.Assigned
		switch {
		case rp.res.Quality != xsdf.DegradeNone.String():
			t.degraded++
		case sameAssignments(rp.res.Assignments, want.assignments[d]):
			t.gold.add(want.gold[d])
			continue
		default:
			if mismatches == 0 {
				r.fail("request %d: response for document %d differs from the library result", i, d)
			}
			mismatches++
		}
		t.gold.addAligned(rp.res.Assignments, want.labels[d], want.golds[d])
	}
	if mismatches > 1 {
		r.fail("%d full-quality responses differ from the library result", mismatches)
	}
	return t
}

// add folds another tally into g.
func (g *goldCount) add(o goldCount) {
	g.correct += o.correct
	g.assigned += o.assigned
	g.total += o.total
}

// addAligned tallies a response's assignments against the gold senses
// of its document's nodes. The wire names no node and a degraded result
// may leave nodes out, so each assignment is matched to the next node in
// preorder that carries its label.
func (g *goldCount) addAligned(as []server.Assignment, labels, golds []string) {
	j := 0
	for i, label := range labels {
		matched := j < len(as) && as[j].Label == label
		if golds[i] != "" {
			g.total++
			if matched {
				g.assigned++
				if as[j].Sense == golds[i] {
					g.correct++
				}
			}
		}
		if matched {
			j++
		}
	}
}

func sameAssignments(got []server.Assignment, want []assignment) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.Label != w.label || g.Sense != w.sense || g.Score != w.score {
			return false
		}
	}
	return true
}

// handleTimer is the traced run's wrapper around server.Handler(): it
// times each request's pass through the server's full middleware and
// handler, keyed by the request's X-Request-Id.
type handleTimer struct {
	next http.Handler
	mu   sync.Mutex
	at   map[string][2]time.Time
}

func (h *handleTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(server.RequestIDHeader)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	h.at[id] = [2]time.Time{start, end}
	h.mu.Unlock()
}

// tracedServe runs the traced half: the same load through the wrapped
// handler on a second listener of the same server, then layer-by-layer
// passes over the corpus with the server's option values.
func tracedServe(cfg config, r *report, sv *served, docs []doc, order []int, want reference, plainP50 float64) error {
	ht := &handleTimer{next: sv.srv.Handler(), at: map[string][2]time.Time{}}
	hs := &http.Server{Handler: ht, ReadHeaderTimeout: 10 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	run := loadWindow("http://"+ln.Addr().String(), true, runtime.NumCPU(), cfg.window/2, docs, order)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	// Spans per request: the request itself from its due time, and
	// within it the encode, the server's handling and the decode. What
	// the three leave uncovered is transport and connection wait.
	tw := run.tally(r, want)
	r.attempted += len(run.replies)
	r.failed += tw.failed
	if tw.failed > 0 {
		r.fail("traced window: %d of %d requests failed (%d rejected)", tw.failed, len(run.replies), tw.rejected)
	}
	if err := run.load.shortfall(); err != nil {
		r.fail("traced window: %v", err)
	}
	rec := newRecorder(time.Now())
	var handle, outside, encode, decode, transport []float64
	for i, rp := range run.replies {
		if rp.err != nil || rp.status != http.StatusOK {
			continue
		}
		at, ok := ht.at[fmt.Sprintf("b%d", i)]
		if !ok {
			r.fail("traced window: request %d answered but never reached the handler", i)
			continue
		}
		root := rec.add(spanRequest, int32(i), -1, rp.done.Add(-rp.latency), rp.done)
		rec.add(spanEncode, int32(i), root, rp.sent, rp.sent.Add(rp.encode))
		rec.add(spanHandle, int32(i), root, at[0], at[1])
		rec.add(spanDecode, int32(i), root, rp.done.Add(-rp.decode), rp.done)
		h := at[1].Sub(at[0])
		var stages int64
		for _, st := range rp.res.Stages {
			stages += st.Micros
		}
		handle = append(handle, micros(h))
		outside = append(outside, micros(h)-float64(stages))
		encode = append(encode, micros(rp.encode))
		decode = append(decode, micros(rp.decode))
		transport = append(transport, micros(rp.done.Sub(rp.sent)-rp.encode-rp.decode-h))
	}
	lat := run.latenciesMS()
	r.layer("server.handle_us_p50", median(handle), "us")
	r.layer("server.outside_stages_us_p50", median(outside), "us")
	r.layer("wire.encode_us_p50", median(encode), "us")
	r.layer("wire.decode_us_p50", median(decode), "us")
	r.layer("wire.transport_us_p50", median(transport), "us")
	r.layer("trace.overhead_ratio", quantile(lat, 0.5)/plainP50, "ratio")

	// The layers under the handler, driven directly over the corpus:
	// one untimed pass warms the memos as the served window did.
	lr := newLayerRun(sv.fw.Network(), serveOptions)
	lt := layerTimes{}
	nodes := 0
	for _, n := range want.nodes {
		nodes += n
	}
	for i := 0; i <= minPasses; i++ {
		p, err := lr.pass(docs, runtime.NumCPU())
		if err != nil {
			return err
		}
		if p.fingerprint != want.fingerprint {
			r.fail("traced fingerprint %s differs from the library's %s", p.fingerprint, want.fingerprint)
		}
		if i > 0 {
			lt.add(p.recs...)
		}
	}
	layerReport(r, lt, nodes*minPasses)
	path, err := writeSpans(traceFile("serve-unary", cfg.seed), []*recorder{rec})
	if err != nil {
		return err
	}
	r.note("spans of the traced window in %s", path)
	return nil
}
