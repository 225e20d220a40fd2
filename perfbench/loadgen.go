package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// loadStats is what an open loop reports about its own load.
type loadStats struct {
	offered float64       // arrivals per second the schedule asked for
	window  time.Duration // length of the schedule
	sent    int           // arrivals launched before the window closed
	lateMS  []float64     // per launched arrival: launch time minus due time
}

func (s loadStats) achieved() float64 { return float64(s.sent) / s.window.Seconds() }

// shortfall reports an achieved rate more than 1% below the offered one:
// the latencies of such a run describe a lighter load than it claims.
func (s loadStats) shortfall() error {
	if s.achieved() < 0.99*s.offered {
		return fmt.Errorf("open loop sent %d arrivals in %v: %.1f/s achieved, %.1f/s offered",
			s.sent, s.window, s.achieved(), s.offered)
	}
	return nil
}

// openLoop runs an open-loop arrival schedule: arrival i is due at
// start + i/rate, an absolute time, so a late launch never shifts the
// arrivals after it and the schedule catches up instead of dropping
// them. Each arrival runs fire(i, due) on its own goroutine; fire times
// its request from due, so the wait a stall imposes on requests queued
// behind it is counted. Arrivals still unlaunched when the window closes
// are the generator's shortfall. openLoop returns once every fire has
// returned.
func openLoop(rate float64, window time.Duration, fire func(i int, due time.Time)) loadStats {
	st := loadStats{offered: rate, window: window}
	n := int(rate * window.Seconds())
	st.lateMS = make([]float64, 0, n)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(window)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if !now.Before(end) {
			break
		}
		st.lateMS = append(st.lateMS, float64(now.Sub(due))/float64(time.Millisecond))
		st.sent++
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			fire(i, due)
		}(i, due)
	}
	wg.Wait()
	return st
}

// unaryClient posts documents to POST /v1/disambiguate over at most
// conns connections.
type unaryClient struct {
	url    string
	hc     *http.Client
	traced bool
}

func newUnaryClient(baseURL string, conns int, traced bool) *unaryClient {
	return &unaryClient{
		url: baseURL + "/v1/disambiguate",
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
			// Far above any latency a valid run sees; it bounds the
			// goroutines a hung server could pile up.
			Timeout: 30 * time.Second,
		},
		traced: traced,
	}
}

func (c *unaryClient) close() { c.hc.CloseIdleConnections() }

// reply is one request's outcome. latency runs from the due time to the
// decoded response. The traced client also stamps its own steps: sent is
// when encoding began, and encode and decode are the JSON marshal of the
// request and unmarshal of the response.
type reply struct {
	latency        time.Duration
	status         int
	err            error
	res            server.Result
	sent, done     time.Time
	encode, decode time.Duration
}

// post sends one document, identified to the server by id.
func (c *unaryClient) post(id, document string, due time.Time) reply {
	var rp reply
	var t0, t1 time.Time
	if c.traced {
		t0 = time.Now()
	}
	body, err := json.Marshal(server.DisambiguateRequest{Document: document})
	if c.traced {
		t1 = time.Now()
		rp.sent, rp.encode = t0, t1.Sub(t0)
	}
	if err != nil {
		rp.err = err
		rp.latency = time.Since(due)
		return rp
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		rp.err = err
		rp.latency = time.Since(due)
		return rp
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.RequestIDHeader, id)
	resp, err := c.hc.Do(req)
	if err == nil {
		var raw []byte
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rp.status = resp.StatusCode
		if err == nil && resp.StatusCode == http.StatusOK {
			t2 := time.Now()
			err = json.Unmarshal(raw, &rp.res)
			if c.traced {
				rp.decode = time.Since(t2)
			}
		}
	}
	rp.err = err
	rp.done = time.Now()
	rp.latency = rp.done.Sub(due)
	return rp
}
