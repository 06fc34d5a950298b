package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// stamp records the environment a result was measured in. compare flags
// result sets whose stamps differ in anything but the revision.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Revision   string `json:"revision,omitempty"` // git HEAD when run from a git checkout's root
}

func envStamp() stamp {
	s := stamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
	// Only a run from the root of a git checkout asks git; elsewhere, as in
	// an exported tree, the stamp has no revision.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			s.Revision = strings.TrimSpace(string(out))
		}
	}
	return s
}

// differences lists the fields other than the revision in which a and b
// differ.
func (a stamp) differences(b stamp) []string {
	var d []string
	add := func(field, x, y string) {
		if x != y {
			d = append(d, field+": "+x+" vs "+y)
		}
	}
	add("go_version", a.GoVersion, b.GoVersion)
	add("goos/goarch", a.GOOS+"/"+a.GOARCH, b.GOOS+"/"+b.GOARCH)
	add("nproc", strconv.Itoa(a.NProc), strconv.Itoa(b.NProc))
	add("gomaxprocs", strconv.Itoa(a.GOMAXPROCS), strconv.Itoa(b.GOMAXPROCS))
	add("cpu_model", a.CPUModel, b.CPUModel)
	return d
}
