//go:build !race && unix

package experiment

import (
	"sort"
	"syscall"
	"testing"
)

// The race detector inflates profiled runs more than unprofiled ones (a
// median pair ratio of ~1.5x under -race on a 2-vCPU container), so the
// gate measures instrumentation cost only in a normal build; CI's
// bench-smoke job runs it there. It reads the process's CPU time
// (getrusage), so it builds on unix only.

// cpuNanos returns this process's CPU time so far, user plus system.
// Unlike wall time, it does not count time the run spends descheduled
// while other processes (other packages' tests) hold the CPUs.
func cpuNanos(t *testing.T) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// TestProfilerOverheadGate is the CI-facing soft gate on the profiler:
// attaching one must cost little — the phase boundaries are a clock read
// each, and the disabled path compiles to a nil check. It times, in
// process CPU time, alternating off/on pairs of a Quick world run twice as long (~120 ms a
// run on a 2-vCPU container; each pair runs back to back, first-run
// order alternating, so machine drift hits both sides alike) and gates
// the median per-pair ratio: one noisy pair moves a best-of or mean
// estimate, not the median. The bound still
// catches a gross regression (instrumentation accidentally moved inside
// a per-node or per-pair loop). BenchmarkProfilerOverhead reports the
// precise ratio.
func TestProfilerOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	s := Quick()
	s.Duration = 5000
	run := func(profile bool) float64 {
		sc := s
		sc.Profile = profile
		t0 := cpuNanos(t)
		sc.Run()
		return float64(cpuNanos(t) - t0)
	}
	run(false) // warm caches (map memoization, allocator)
	run(true)
	const pairs = 11
	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, on float64
		if i%2 == 0 {
			off = run(false)
			on = run(true)
		} else {
			on = run(true)
			off = run(false)
		}
		ratios[i] = on / off
	}
	sort.Float64s(ratios)
	median := ratios[pairs/2]
	if median > 1.25 {
		t.Fatalf("profiler-enabled runs cost a median %.2fx of disabled ones (pair ratios %.2f): over the 25%% gate", median, ratios)
	}
	t.Logf("profiler overhead: median pair ratio %.2fx (pair ratios %.2f)", median, ratios)
}
