package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// cpuModules are the modules CPU self time is attributed to: the
// repository's layers, this harness, and the Go runtime and standard
// library split into the parts the workloads lean on.
var cpuModules = []string{
	"graph", "core", "routing", "network", "mobility", "geo", "mapgen", "sim",
	"buffer", "msg", "metrics", "trace", "experiment", "resultcache", "server",
	"loadgen", "obs", "harness", "gc", "runtime", "net", "json", "syscall", "other",
}

// gcMarkers are substrings of runtime function names that belong to the
// garbage collector (marking, sweeping, write barriers, assists).
var gcMarkers = []string{
	"gcBgMarkWorker", "gcDrain", "gcAssist", "gcMark", "gcStart", "gcSweep",
	"scanobject", "greyobject", "markroot", "scanblock", "scanstack", "scanframe",
	"sweep", "heapBits", "findObject", "wbBuf", "typePointers", "markBits", "bulkBarrier",
	"(*gcWork)", "(*gcControllerState)", "gcFlushBgCredit",
}

// moduleOf maps a function name as pprof prints it to a module.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		// A package of the repository is its own module when listed;
		// the small helpers (xrand, bitset, traffic, ...) count as other.
		pkg := fn[len("repro/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if slices.Contains(cpuModules, pkg) {
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "harness"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/"):
		for _, g := range gcMarkers {
			if strings.Contains(fn, g) {
				return "gc"
			}
		}
		return "runtime"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net/") || strings.HasPrefix(fn, "net.") ||
		strings.HasPrefix(fn, "bufio.") || strings.HasPrefix(fn, "mime"):
		return "net"
	case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/poll.") ||
		strings.HasPrefix(fn, "os.") || strings.HasPrefix(fn, "internal/syscall/"):
		return "syscall"
	}
	return "other"
}

// parseTop reads the output of `go tool pprof -top` and returns the flat
// (self) seconds per module and in total.
func parseTop(out string) (map[string]float64, float64, error) {
	secs := map[string]float64{}
	total := 0.0
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !inTable {
			inTable = strings.HasPrefix(line, "flat") && strings.Contains(line, "cum%")
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		flat, err := parseFlat(f[0])
		if err != nil {
			return nil, 0, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		secs[moduleOf(strings.Join(f[5:], " "))] += flat
		total += flat
	}
	if !inTable {
		return nil, 0, fmt.Errorf("pprof -top output has no table")
	}
	return secs, total, nil
}

// parseFlat parses a pprof duration such as "1.52s", "340ms" or "0".
func parseFlat(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range []struct {
		suffix string
		secs   float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.secs, err
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// cpuShares turns a CPU profile into the share of self time per module
// (percent of all samples) and the utilisation of the measured window
// (CPU seconds ÷ (wall × GOMAXPROCS), percent). It runs the Go toolchain's
// pprof, which works offline on the profile alone.
func cpuShares(profPath string, measured time.Duration) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=100000", profPath).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	secs, total, err := parseTop(string(out))
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for mod, s := range secs {
		shares[mod] = pct(s, total)
	}
	util := pct(total, measured.Seconds()*float64(runtime.GOMAXPROCS(0)))
	return shares, util, nil
}
