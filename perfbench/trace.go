package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per layer boundary the traced run calls across.
const (
	spanParse    = "xmltree.parse"
	spanDoc      = "doc"
	spanProcess  = "lingproc.process"
	spanSelect   = "ambiguity.select"
	spanDisambig = "disambig.apply"
	spanNode     = "disambig.node"
	spanRequest  = "request"
	spanEncode   = "wire.encode"
	spanHandle   = "server.handle"
	spanDecode   = "wire.decode"
)

// span is one timed call. Spans of one document or request share doc;
// parent indexes the causing span in the same recorder (-1 for a root).
type span struct {
	doc, parent int32
	name        string
	start, end  time.Duration // since the recorder's base
}

// recorder keeps the spans of one goroutine in memory. It takes no lock:
// each worker owns its recorder, and children always close before their
// parent, so self times can be computed per recorder.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) begin(name string, doc, parent int32) int32 {
	r.spans = append(r.spans, span{doc: doc, parent: parent, name: name, start: time.Since(r.base)})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].end = time.Since(r.base) }

// add records a span whose bounds were measured elsewhere.
func (r *recorder) add(name string, doc, parent int32, start, end time.Time) int32 {
	r.spans = append(r.spans, span{doc: doc, parent: parent, name: name,
		start: start.Sub(r.base), end: end.Sub(r.base)})
	return int32(len(r.spans) - 1)
}

// layerTimes accumulates, per span name, the self time (duration minus
// the part its child spans cover), the span count, and each span's
// duration in microseconds.
type layerTimes map[string]*layerTime

type layerTime struct {
	self  time.Duration
	count int
	durs  []float64
}

func (lt layerTimes) add(recs ...*recorder) {
	for _, r := range recs {
		children := make([]time.Duration, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				children[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			t := lt[s.name]
			if t == nil {
				t = &layerTime{}
				lt[s.name] = t
			}
			d := s.end - s.start
			t.self += d - children[i]
			t.count++
			t.durs = append(t.durs, micros(d))
		}
	}
}

// selfMicros is the summed self time of a layer in microseconds.
func (lt layerTimes) selfMicros(name string) float64 {
	if t := lt[name]; t != nil {
		return micros(t.self)
	}
	return 0
}

// durQuantile is the q-quantile of a layer's span durations in
// microseconds.
func (lt layerTimes) durQuantile(name string, q float64) float64 {
	if t := lt[name]; t != nil {
		return quantile(t.durs, q)
	}
	return 0
}

// writeSpans writes the spans of recs as JSON lines to
// .bench_build/traces/<file>, where they outlive the run.
func writeSpans(file string, recs []*recorder) (path string, err error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ri, r := range recs {
		for i, s := range r.spans {
			rec := struct {
				Recorder int    `json:"recorder"`
				ID       int    `json:"id"`
				Parent   int32  `json:"parent"`
				Doc      int32  `json:"doc"`
				Name     string `json:"name"`
				StartNS  int64  `json:"start_ns"`
				EndNS    int64  `json:"end_ns"`
			}{ri, i, s.parent, s.doc, s.name, int64(s.start), int64(s.end)}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
