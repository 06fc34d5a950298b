//go:build !race && linux

package experiment

import (
	"runtime"
	"sort"
	"syscall"
	"testing"
	"unsafe"
)

// The race detector inflates profiled runs more than unprofiled ones (a
// median pair ratio of ~1.5x under -race on a 2-vCPU container), so the
// gate measures instrumentation cost only in a normal build; CI's
// bench-smoke job runs it there. It reads the calling thread's CPU clock,
// so it builds on Linux only.

// threadCPUNanos returns the CPU time the calling OS thread has used so
// far. A Quick world runs on the goroutine that calls Run, so with that
// goroutine locked to its thread this clock counts the run and its GC
// assists, but neither other packages' tests sharing the CPUs nor the
// background GC workers, whose timing drifts from run to run.
func threadCPUNanos(t *testing.T) int64 {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		t.Fatalf("clock_gettime: %v", errno)
	}
	return ts.Nano()
}

// TestProfilerOverheadGate is the CI-facing soft gate on the profiler:
// attaching one must cost little — the phase boundaries are a clock read
// each, and the disabled path compiles to a nil check. It times, on the
// thread's CPU clock, pairs of an unprofiled and a profiled Quick world
// (~60 ms a run on a 2-vCPU container), each run starting from a
// collected heap, in ABBA order so that drift over the sequence hits
// both sides alike, and gates the median per-pair ratio: one noisy pair
// moves a best-of or mean estimate, not the median. The bound still
// catches a gross regression (instrumentation accidentally moved inside
// a per-node or per-pair loop). BenchmarkProfilerOverhead reports the
// precise ratio.
func TestProfilerOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	s := Quick()
	s.Duration = 2500
	run := func(profile bool) float64 {
		sc := s
		sc.Profile = profile
		runtime.GC()
		t0 := threadCPUNanos(t)
		sc.Run()
		return float64(threadCPUNanos(t) - t0)
	}
	run(false) // warm caches (map memoization, allocator)
	run(true)
	const pairs = 16
	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, on float64
		if i%4 == 0 || i%4 == 3 { // ABBA: off first, on first, on first, off first
			off = run(false)
			on = run(true)
		} else {
			on = run(true)
			off = run(false)
		}
		ratios[i] = on / off
	}
	sort.Float64s(ratios)
	median := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	if median > 1.25 {
		t.Fatalf("profiler-enabled runs cost a median %.2fx of disabled ones (pair ratios %.2f): over the 25%% gate", median, ratios)
	}
	t.Logf("profiler overhead: median pair ratio %.2fx (pair ratios %.2f)", median, ratios)
}
