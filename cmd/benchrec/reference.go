package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// referenceSeed is the seed the committed reference hashes were recorded
// for; other seeds are checked for self-consistency only.
const referenceSeed = 1

//go:embed testdata/reference_seed1.json
var referenceJSON []byte

// reference is the correctness gate: the SHA-256 of every deterministic,
// timing-free output of a seed-1 run. The engine is bit-deterministic for
// one architecture; other architectures may fuse multiply-adds, so the
// hashes apply to the GOARCH they were recorded on.
type reference struct {
	GOARCH  string            `json:"goarch"`
	Outputs map[string]string `json:"outputs"`
}

// checkReference compares a run's outputs with the reference and returns
// one line per mismatch. Outputs of other seeds or architectures are not
// compared.
func checkReference(seed int64, outputs map[string]string) []string {
	if seed != referenceSeed {
		return nil
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return []string{fmt.Sprintf("reference file: %v", err)}
	}
	if ref.GOARCH != runtime.GOARCH {
		return nil
	}
	var bad []string
	for name, h := range outputs {
		want, ok := ref.Outputs[name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no reference hash", name))
		case want != h:
			bad = append(bad, fmt.Sprintf("%s: output %.12s, reference %.12s", name, h, want))
		}
	}
	sort.Strings(bad)
	return bad
}

// referenceMain merges the outputs of seed-1 result files into a reference
// file on w: the way testdata/reference_seed1.json is regenerated after a
// change that is meant to alter simulation results.
func referenceMain(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: benchrec reference RESULT.json...")
	}
	ref := reference{GOARCH: runtime.GOARCH, Outputs: map[string]string{}}
	for _, p := range paths {
		rf, err := readRunFile(p)
		if err != nil {
			return err
		}
		if rf.Seed != referenceSeed {
			return fmt.Errorf("%s: seed %d, the reference is for seed %d", p, rf.Seed, referenceSeed)
		}
		if rf.Failed > 0 {
			return fmt.Errorf("%s: %d operations failed; fix those before recording a reference", p, rf.Failed)
		}
		for name, h := range rf.Outputs {
			if prev, ok := ref.Outputs[name]; ok && prev != h {
				return fmt.Errorf("%s: %s disagrees with an earlier file", p, name)
			}
			ref.Outputs[name] = h
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
