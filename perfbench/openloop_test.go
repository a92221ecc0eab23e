package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must show up in the open loop's latencies
// of the requests that were due while it stalled, timed from their due
// time, while the generator itself keeps to its schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		rate    = 1000.0
		n       = 300
		stallAt = 100 // the 100th request served stalls
		stall   = 50 * time.Millisecond
	)
	var mu sync.Mutex // one server: a stall blocks every connection
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}}
	defer hc.CloseIdleConnections()

	res := runOpenLoop(rate, n, maxConns, func(int) bool {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	// The stalling request is not sent before it is due, so the stall
	// ends no earlier than due(stallAt-1)+stall. Everything due in
	// between waited for it.
	stallEnd := due(stallAt-1) + stall
	for i := stallAt + 5; due(i) < stallEnd-10*time.Millisecond; i++ {
		if want := stallEnd - due(i) - time.Millisecond; res.lat[i] < want {
			t.Errorf("request %d, due %v into the run: latency %v, want at least %v (the rest of the stall)",
				i, due(i), res.lat[i], want)
		}
	}
	before := append([]time.Duration(nil), res.lat[10:stallAt-10]...)
	if p50 := percentile(before, 0.5); p50 > 10*time.Millisecond {
		t.Errorf("median latency before the stall %v; the server answers at once", p50)
	}
	if late := percentile(append([]time.Duration(nil), res.late...), 0.99); late > stall/2 {
		t.Errorf("generator p99 lateness %v: the stall held the generator back", late)
	}
}
