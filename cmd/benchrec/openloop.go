package main

import (
	"runtime"
	"time"
)

// clock is the open-loop dispatcher's time source; tests drive a fake one.
type clock interface {
	now() time.Duration // since the start of the open loop
	waitUntil(t time.Duration)
}

// realClock is the monotonic wall clock.
type realClock struct{ t0 time.Time }

func (c realClock) now() time.Duration { return time.Since(c.t0) }

// waitUntil sleeps until shortly before t and spins, yielding the
// processor, for the rest: an idle timer wake-up can land up to a
// millisecond late, which would be charged to every request's latency.
func (c realClock) waitUntil(t time.Duration) {
	for {
		d := t - c.now()
		if d <= 0 {
			return
		}
		if d > 3*time.Millisecond {
			time.Sleep(d - 2*time.Millisecond)
			continue
		}
		runtime.Gosched()
	}
}

// openResult is what one open-loop window measured, per request in due
// order: latency from the due time to completion, and how late after its
// due time the request was sent.
type openResult struct {
	latMs, lateMs []float64
	failed        int
	backlogMax    int // most requests already due but not yet sent
}

// openLoop sends n requests at rate per second. Request i is due at
// i/rate; the loop waits until it is due, or sends it at once when it is
// already late. Latency counts from the due time, so a slow reply is
// charged to the requests that queue behind it, as it would be for
// independent users; lateness shows how far behind schedule the generator
// ran. send reports whether the request succeeded and passed its checks.
func openLoop(clk clock, rate float64, n int, send func(i int, due time.Duration) bool) openResult {
	res := openResult{latMs: make([]float64, n), lateMs: make([]float64, n)}
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		clk.waitUntil(due)
		sent := clk.now()
		res.backlogMax = max(res.backlogMax, min(int(sent.Seconds()*rate)+1, n)-i-1)
		if !send(i, due) {
			res.failed++
		}
		res.latMs[i] = float64(clk.now()-due) / 1e6
		res.lateMs[i] = float64(sent-due) / 1e6
	}
	return res
}
