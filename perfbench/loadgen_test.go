package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStallWait drives the serve-unary client against a
// stub handler that stalls once for 200 ms, over one connection, so the
// requests due during the stall queue behind it. Timed from their due
// times, those requests report the wait; a generator that timed from the
// actual send, or skipped the arrivals it was late for, would not.
func TestOpenLoopCountsStallWait(t *testing.T) {
	const (
		rate  = 200.0
		stall = 200 * time.Millisecond
	)
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 20 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"quality":"full","assignments":[]}`))
	}))
	defer stub.Close()

	c := newUnaryClient(stub.URL, 1, false)
	defer c.close()
	latencies := make([]time.Duration, int(rate))
	st := openLoop(rate, time.Second, func(i int, due time.Time) {
		rp := c.post("t", "<a/>", due)
		if rp.err != nil || rp.status != http.StatusOK {
			t.Errorf("request %d: status %d, err %v", i, rp.status, rp.err)
		}
		latencies[i] = rp.latency
	})

	if err := st.shortfall(); err != nil {
		t.Fatal(err)
	}
	if st.sent != int(rate) {
		t.Fatalf("sent %d arrivals, want %d", st.sent, int(rate))
	}
	// Arrivals come every 5 ms, so about 40 fall inside the stall; the
	// first of them waits nearly all of it and the wait shrinks by 5 ms
	// per arrival after it.
	var worst time.Duration
	waited := 0
	for _, l := range latencies {
		if l > worst {
			worst = l
		}
		if l >= stall/2 {
			waited++
		}
	}
	if worst < stall*9/10 {
		t.Errorf("worst latency %v, want at least %v", worst, stall*9/10)
	}
	if waited < 15 {
		t.Errorf("%d requests waited at least %v, want at least 15", waited, stall/2)
	}
}

// TestShortfall checks the 1% gate on achieved versus offered rate.
func TestShortfall(t *testing.T) {
	ok := loadStats{offered: 100, window: 10 * time.Second, sent: 990}
	if err := ok.shortfall(); err != nil {
		t.Errorf("990 of 1000: %v", err)
	}
	short := loadStats{offered: 100, window: 10 * time.Second, sent: 989}
	if short.shortfall() == nil {
		t.Error("989 of 1000 passed the gate")
	}
}
