package main

import (
	"math"
	"testing"
)

const cannedTop = `File: benchrec
Type: cpu
Time: 2026-10-16 02:23:24 UTC
Duration: 12.14s, Total samples = 4s (32.95%)
Showing nodes accounting for 4s, 100% of 4s total
      flat  flat%   sum%        cum   cum%
     1.50s 37.50% 37.50%      1.50s 37.50%  repro/internal/graph.DenseDijkstraScratch
     500ms 12.50% 50.00%      2.92s 73.00%  repro/internal/routing.(*MaxProp).refreshCost
     400ms 10.00% 60.00%      0.40s 10.00%  runtime.memmove
     300ms  7.50% 67.50%      0.30s  7.50%  runtime.scanobject
     200ms  5.00% 72.50%      0.20s  5.00%  runtime.(*gcWork).tryGet
     200ms  5.00% 77.50%      0.20s  5.00%  repro/internal/core.(*MeetingMatrix).Merge
     300ms  7.50% 85.00%      0.30s  7.50%  encoding/json.(*decodeState).object
     200ms  5.00% 90.00%      0.20s  5.00%  net/http.(*conn).serve
     100ms  2.50% 92.50%      0.10s  2.50%  math.IsInf (inline)
     100ms  2.50% 95.00%      0.10s  2.50%  main.runPaper.func2
     100ms  2.50% 97.50%      0.10s  2.50%  internal/poll.(*FD).Read
      50ms  1.25% 98.75%      0.05s  1.25%  repro/internal/xrand.(*Source).Float64
      50ms  1.25%   100%      0.05s  1.25%  runtime.mallocgc
         0     0%   100%      3.00s 75.00%  repro/internal/network.(*World).updateContacts
`

func TestParseTopAggregatesSelfTimeByModule(t *testing.T) {
	secs, total, err := parseTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"graph": 1.5, "routing": 0.5, "runtime": 0.45, "gc": 0.5, "core": 0.2,
		"json": 0.3, "net": 0.2, "other": 0.15, "harness": 0.1, "syscall": 0.1,
	}
	for mod, w := range want {
		if math.Abs(secs[mod]-w) > 1e-9 {
			t.Errorf("%s: %g s, want %g", mod, secs[mod], w)
		}
	}
	if math.Abs(total-4) > 1e-9 {
		t.Errorf("total %g s, want 4", total)
	}
	if secs["network"] != 0 {
		t.Errorf("network has no self time, got %g", secs["network"])
	}
	for mod := range secs {
		found := false
		for _, m := range cpuModules {
			found = found || m == mod
		}
		if !found {
			t.Errorf("module %q is not in cpuModules", mod)
		}
	}
}

func TestParseTopRejectsOutputWithoutTable(t *testing.T) {
	if _, _, err := parseTop("File: x\nType: cpu\n"); err == nil {
		t.Error("want an error for output with no table")
	}
	if _, _, err := parseTop("      flat  flat%   sum%        cum   cum%\n 1.5lightyears 1% 1% 1s 1% f\n"); err == nil {
		t.Error("want an error for an unparseable duration")
	}
}

func TestParseFlatUnits(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "1.52s": 1.52, "340ms": 0.34, "10us": 1e-5, "2mins": 120, "7ns": 7e-9} {
		got, err := parseFlat(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseFlat(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
}
