package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a clock that only moves when told: waiting jumps to the
// deadline, and a request's cost advances it.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) waitUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopTimesFromDueAndCountsLateness(t *testing.T) {
	// 1000 req/s: a request is due every 1 ms. The first four take 1.5 ms
	// each, so the schedule slips and the later ones are sent late; then
	// requests take 0.5 ms and the loop catches up.
	clk := &fakeClock{}
	const ms = time.Millisecond
	out := openLoop(clk, 1000, 10, func(i int, due time.Duration) bool {
		if want := time.Duration(i) * ms; due.Round(time.Microsecond) != want {
			t.Errorf("request %d due at %v, want %v", i, due, want)
		}
		if i < 4 {
			clk.t += 3 * ms / 2
		} else {
			clk.t += ms / 2
		}
		return i != 3
	})
	wantLat := []float64{1.5, 2, 2.5, 3, 2.5, 2, 1.5, 1, 0.5, 0.5}
	wantLate := []float64{0, 0.5, 1, 1.5, 2, 1.5, 1, 0.5, 0, 0}
	for i := range wantLat {
		if math.Abs(out.latMs[i]-wantLat[i]) > 1e-6 || math.Abs(out.lateMs[i]-wantLate[i]) > 1e-6 {
			t.Errorf("request %d: latency %g ms, late %g ms; want %g, %g", i, out.latMs[i], out.lateMs[i], wantLat[i], wantLate[i])
		}
	}
	if out.failed != 1 {
		t.Errorf("failed = %d, want 1", out.failed)
	}
	// Sent at 6 ms, request 4 leaves requests 5 and 6 already due.
	if out.backlogMax != 2 {
		t.Errorf("backlogMax = %d, want 2", out.backlogMax)
	}
}

func TestOpenLoopOnScheduleHasNoLateness(t *testing.T) {
	clk := &fakeClock{}
	out := openLoop(clk, 500, 50, func(int, time.Duration) bool {
		clk.t += time.Millisecond // half the 2 ms interval
		return true
	})
	for i := range out.latMs {
		if out.lateMs[i] != 0 || math.Abs(out.latMs[i]-1) > 1e-9 {
			t.Fatalf("request %d: latency %g ms, late %g ms; want 1, 0", i, out.latMs[i], out.lateMs[i])
		}
	}
	if out.failed != 0 || out.backlogMax != 0 {
		t.Errorf("failed %d, backlog %d; want 0, 0", out.failed, out.backlogMax)
	}
}
