package experiment

import (
	"strings"
	"testing"
)

// TestForEachJobPanicPropagates: a panic inside a pooled job must surface
// on the calling goroutine (not crash the process from a worker), so
// servers can contain it with recover while CLI runs still die loudly.
// On multi-core hosts this exercises the worker path, on GOMAXPROCS=1
// the inline path — the contract is the same.
func TestForEachJobPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate to the caller")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "job 2 exploded") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	_ = runJobs(nil, 8, func(i int) error {
		if i == 2 {
			panic("job 2 exploded")
		}
		return nil
	})
}
