// GET /metricsz: the Prometheus text exposition of everything the serving
// stack measures — stage latency histograms, cache hit rates, admission
// gate pressure (occupancy, shed counts, wait distribution), circuit
// breaker states and rolling windows, response status/quality mixes, and
// stream lifecycle counters. The format is Prometheus text 0.0.4, written
// by the hand-rolled expositor in internal/metrics (no client library —
// see that package's doc for why), so any Prometheus-compatible scraper
// can consume it unmodified.
package server

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// metricsContentType is the Prometheus text exposition media type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// breakerStateValue maps a breaker's reported state onto a numeric gauge:
// the conventional closed=0 / half-open=1 / open=2 encoding (alert on
// value >= 2), with -1 for a disabled breaker so dashboards can tell
// "never trips" from "closed".
func breakerStateValue(state string) float64 {
	switch state {
	case "closed":
		return 0
	case "half-open":
		return 1
	case "open":
		return 2
	default: // "disabled"
		return -1
	}
}

// handleMetricsz: GET /metricsz.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metricsContentType)
	e := metrics.NewExpositor(w)

	// Process-level gauges.
	e.Family("xsdf_uptime_seconds", "Seconds since the server started.", "gauge")
	e.Sample("", nil, time.Since(s.start).Seconds())
	e.Family("xsdf_draining", "1 once graceful drain has begun, else 0.", "gauge")
	e.Sample("", nil, boolValue(s.draining.Load()))

	// HTTP accounting.
	e.Family("xsdf_http_requests_in_flight", "Requests currently being served.", "gauge")
	e.Sample("", nil, float64(s.inFlight.Load()))
	e.Family("xsdf_http_requests_total", "Requests served since start.", "counter")
	e.Sample("", nil, float64(s.served.Load()))

	e.Family("xsdf_http_responses_total", "Responses by HTTP status code.", "counter")
	s.statusMu.Lock()
	codes := make([]int, 0, len(s.statusCounts))
	for code := range s.statusCounts {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		e.Sample("", []metrics.Label{{Name: "code", Value: strconv.Itoa(code)}},
			float64(s.statusCounts[code]))
	}
	s.statusMu.Unlock()

	e.Family("xsdf_response_quality_total",
		"Documents served by degradation-ladder rung, across all endpoints.", "counter")
	s.qualityMu.Lock()
	rungs := make([]string, 0, len(s.qualityCounts))
	for q := range s.qualityCounts {
		rungs = append(rungs, q)
	}
	sort.Strings(rungs)
	for _, q := range rungs {
		e.Sample("", []metrics.Label{{Name: "quality", Value: q}}, float64(s.qualityCounts[q]))
	}
	s.qualityMu.Unlock()

	// Pipeline stages: latency distributions plus cumulative counters.
	// The histogram only sees stages that actually ran, so its count can
	// trail xsdf_stage_calls_total after cancellations — by design.
	e.Family("xsdf_stage_duration_seconds",
		"Pipeline stage execution latency (executed stages only).", "histogram")
	for _, sl := range s.fw.StageLatencies() {
		e.Histogram([]metrics.Label{{Name: "stage", Value: sl.Stage}}, sl.Latency)
	}
	stageStats := s.fw.StageStats()
	e.Family("xsdf_stage_calls_total", "Pipeline stage invocations.", "counter")
	for _, st := range stageStats {
		e.Sample("", []metrics.Label{{Name: "stage", Value: st.Stage}}, float64(st.Calls))
	}
	e.Family("xsdf_stage_errors_total", "Pipeline stage invocations that failed.", "counter")
	for _, st := range stageStats {
		e.Sample("", []metrics.Label{{Name: "stage", Value: st.Stage}}, float64(st.Errors))
	}
	e.Family("xsdf_stage_items_total", "Items processed by each pipeline stage.", "counter")
	for _, st := range stageStats {
		e.Sample("", []metrics.Label{{Name: "stage", Value: st.Stage}}, float64(st.Items))
	}

	// Lexicon hot-swap subsystem. The epoch gauge carries the version and
	// checksum as labels so a dashboard shows identity alongside the
	// number; counters track the swap/rollback/canary history and the
	// drain gauge exposes retired snapshots still pinned by in-flight runs.
	ls := s.fw.LexiconStats()
	e.Family("xsdf_lexicon_epoch",
		"Serving lexicon snapshot epoch (labels carry version and checksum).", "gauge")
	e.Sample("", []metrics.Label{
		{Name: "version", Value: ls.Info.Version},
		{Name: "checksum", Value: ls.Info.Checksum},
	}, float64(ls.Info.Epoch))
	e.Family("xsdf_lexicon_concepts", "Concept count of the serving lexicon.", "gauge")
	e.Sample("", nil, float64(ls.Info.Concepts))
	e.Family("xsdf_lexicon_swaps_total", "Successful lexicon hot-swaps.", "counter")
	e.Sample("", nil, float64(ls.Swaps))
	e.Family("xsdf_lexicon_rollbacks_total",
		"Failed reloads rolled back to the serving lexicon.", "counter")
	e.Sample("", nil, float64(ls.Rollbacks))
	e.Family("xsdf_lexicon_canary_failures_total",
		"Reload candidates rejected by the canary stage.", "counter")
	e.Sample("", nil, float64(ls.CanaryFailures))
	e.Family("xsdf_lexicon_retired_awaiting_drain",
		"Retired lexicon snapshots still pinned by in-flight runs.", "gauge")
	e.Sample("", nil, float64(ls.RetiredAwaitingDrain))
	e.Family("xsdf_lexicon_reload_duration_seconds",
		"Staged reload pipeline latency, success or rollback.", "histogram")
	e.Histogram(nil, ls.ReloadLatency)

	// Disambiguation caches.
	cs := s.fw.CacheStats()
	e.Family("xsdf_cache_hits_total", "Disambiguation cache hits.", "counter")
	e.Sample("", []metrics.Label{{Name: "cache", Value: "similarity"}}, float64(cs.SimHits))
	e.Sample("", []metrics.Label{{Name: "cache", Value: "vector"}}, float64(cs.VectorHits))
	e.Sample("", []metrics.Label{{Name: "cache", Value: "max"}}, float64(cs.MaxHits))
	e.Family("xsdf_cache_misses_total", "Disambiguation cache misses.", "counter")
	e.Sample("", []metrics.Label{{Name: "cache", Value: "similarity"}}, float64(cs.SimMisses))
	e.Sample("", []metrics.Label{{Name: "cache", Value: "vector"}}, float64(cs.VectorMisses))
	e.Sample("", []metrics.Label{{Name: "cache", Value: "max"}}, float64(cs.MaxMisses))

	// Admission gate (absent when admission is disabled).
	if gs, ok := s.fw.GateStats(); ok {
		e.Family("xsdf_gate_in_flight", "Admission gate occupancy by resource.", "gauge")
		e.Sample("", []metrics.Label{{Name: "resource", Value: "docs"}}, float64(gs.Docs))
		e.Sample("", []metrics.Label{{Name: "resource", Value: "nodes"}}, float64(gs.Nodes))
		e.Family("xsdf_gate_admitted_total", "Documents admitted by the gate.", "counter")
		e.Sample("", nil, float64(gs.Admitted))
		e.Family("xsdf_gate_rejected_total", "Documents shed by the gate as overload.", "counter")
		e.Sample("", nil, float64(gs.Rejected))
		e.Family("xsdf_gate_waited_total", "Admitted documents that had to wait for capacity.", "counter")
		e.Sample("", nil, float64(gs.Waited))
	}
	if hist, ok := s.fw.GateWaitLatencies(); ok {
		e.Family("xsdf_gate_wait_seconds",
			"Time documents spent blocked on the admission gate (admitted or shed).", "histogram")
		e.Histogram(nil, hist)
	}

	// Circuit breakers: numeric state plus the rolling window — gauges,
	// not counters, because the window decays.
	routes := make([]string, 0, len(s.breakers))
	for route := range s.breakers {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	reports := make(map[string]BreakerReport, len(routes))
	for _, route := range routes {
		reports[route] = s.breakers[route].report()
	}
	e.Family("xsdf_breaker_state",
		"Circuit breaker state: closed=0, half-open=1, open=2, disabled=-1.", "gauge")
	for _, route := range routes {
		e.Sample("", []metrics.Label{{Name: "route", Value: route}},
			breakerStateValue(reports[route].State))
	}
	e.Family("xsdf_breaker_window_ok", "Successes in the breaker's rolling window.", "gauge")
	for _, route := range routes {
		e.Sample("", []metrics.Label{{Name: "route", Value: route}}, float64(reports[route].OK))
	}
	e.Family("xsdf_breaker_window_failures", "Failures in the breaker's rolling window.", "gauge")
	for _, route := range routes {
		e.Sample("", []metrics.Label{{Name: "route", Value: route}}, float64(reports[route].Failures))
	}

	// Stream lifecycle.
	e.Family("xsdf_stream_documents_delivered_total", "NDJSON result lines delivered.", "counter")
	e.Sample("", nil, float64(s.streamDelivered.Load()))
	e.Family("xsdf_stream_sheds_total", "Streams shed on a write timeout.", "counter")
	e.Sample("", nil, float64(s.streamShed.Load()))
	e.Family("xsdf_stream_resumes_total", "Streams that resumed a prior cursor sequence.", "counter")
	e.Sample("", nil, float64(s.streamResumes.Load()))
	e.Family("xsdf_stream_window_limit", "Configured per-stream in-flight window.", "gauge")
	e.Sample("", nil, float64(s.cfg.StreamWindow))

	// Subtree mode (incremental parsing over /v1/stream).
	e.Family("xsdf_stream_subtrees_emitted_total",
		"Subtree result lines delivered by subtree-mode streams.", "counter")
	e.Sample("", nil, float64(s.subtreeEmitted.Load()))
	e.Family("xsdf_stream_subtrees_failed_total",
		"Subtree lines delivered with a typed error.", "counter")
	e.Sample("", nil, float64(s.subtreeFailed.Load()))
	e.Family("xsdf_stream_subtrees_guard_tripped_total",
		"Failed subtree lines whose error was a resource-guard limit.", "counter")
	e.Sample("", nil, float64(s.subtreeGuardTripped.Load()))
	e.Family("xsdf_stream_subtree_bytes",
		"Encoded input size of subtrees scanned in subtree mode.", "histogram")
	e.Histogram(nil, s.subtreeBytes.Snapshot())

	if err := e.Err(); err != nil {
		s.logger.Warn("writing metrics failed", "error", err)
	}
}

// boolValue renders a bool as the conventional 0/1 gauge value.
func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
