// Command benchrec is the repository's benchmark: four workloads that
// separate the costs of the routers and estimators (paper-live), the
// engine tick loop (city-live), the record-once/replay-many sweep path
// (sweep-replay) and the dtnd service (dtnd-mixed). Workloads, metrics,
// units and regression bounds are declared in BENCHMARK.json at the
// repository root; see README.md next to this file.
//
// Run from the repository root:
//
//	bash cmd/benchrec/run.sh -seed 1                      # all workloads, one child process each
//	bash cmd/benchrec/run.sh -seed 1 -trace 1             # per-layer numbers, profiles, spans
//	bash cmd/benchrec/run.sh --workload city-live --seed 3 --seconds 12 --trace 0
//	bash cmd/benchrec/run.sh compare base/ change/        # verdict per workload and metric
//	bash cmd/benchrec/run.sh reference .bench_build/results/*-seed1-trace0.json
//
// A single-workload run prints its metrics as one JSON object on the last
// line of standard output and writes a result file under -out. The exit
// status is 1 when a run fails or any correctness check does not hold.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// specPath is BENCHMARK.json, relative to the repository root the tool is
// run from.
const specPath = "BENCHMARK.json"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			exitOn(compareMain(os.Args[2:], os.Stdout))
			return
		case "reference":
			exitOn(referenceMain(os.Args[2:], os.Stdout))
			return
		}
	}
	var (
		workload = flag.String("workload", "", "run only this workload, in this process (default: every workload, one child process each)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 0, "measured seconds per workload (default: run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, CPU profile and spans instead of end-to-end metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result files, profiles and span traces")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		exitOn(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		exitOn(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	spec, err := loadSpec(specPath)
	exitOn(err)
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	if *workload != "" {
		exitOn(runOne(spec, *workload, opts))
		return
	}
	exitOn(runAll(spec, opts))
}

// exitOn prints err and exits 1 when it is non-nil.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that completed but failed a correctness check;
// its result line is still printed.
var errIncorrect = errors.New("correctness check failed")

// runOne runs one workload in this process, prints its result line and
// writes its result file.
func runOne(spec *benchSpec, name string, opts runOpts) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if !spec.hasWorkload(name) {
		return fmt.Errorf("workload %q is not declared in %s", name, specPath)
	}
	rf, err := execute(spec, w, opts, fullScale)
	if err != nil {
		return err
	}
	if err := rf.write(opts.out); err != nil {
		return err
	}
	for _, e := range rf.Errors {
		fmt.Fprintln(os.Stderr, "benchrec: check:", e)
	}
	line, err := json.Marshal(rf.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rf.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every declared workload in its own child process (a re-exec
// of this binary), so that peak RSS and GC state stay separate, and prints
// every metric as "workload metric value unit".
func runAll(spec *benchSpec, opts runOpts) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, wd := range spec.Workloads {
		args := []string{"-workload", wd.Name, "-seed", fmt.Sprint(opts.seed),
			"-seconds", fmt.Sprint(int(opts.seconds / time.Second)), "-trace", boolDigit(opts.traced), "-out", opts.out}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		runErr := cmd.Run()
		line, perr := lastResultLine(stdout.Bytes())
		if perr != nil {
			fmt.Fprintf(os.Stderr, "benchrec: %s: %v (child: %v)\n", wd.Name, perr, runErr)
			failed++
			continue
		}
		names := make([]string, 0, len(line.Metrics))
		for n := range line.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-13s %-28s %14.6g %s\n", wd.Name, n, line.Metrics[n].Value, line.Metrics[n].Unit)
		}
		fmt.Printf("%-13s %-28s %14d/%d correct=%v\n", wd.Name, "failed/attempted", line.Failed, line.Attempted, line.Correct)
		if runErr != nil || !line.Correct || line.Failed > 0 {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed or did not pass their checks", failed, len(spec.Workloads))
	}
	return nil
}

// lastResultLine parses the JSON object on the last non-empty line of a
// child's standard output.
func lastResultLine(out []byte) (resultLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var line resultLine
	if last == "" {
		return line, errors.New("no result line")
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("bad result line: %w", err)
	}
	return line, nil
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
