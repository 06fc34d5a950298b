package server

// Sweep-level jobs: POST /v1/sweeps accepts an experiment.SweepSpec — a
// base scenario plus axes — and fans its expanded cells out over the
// same bounded job queue single submissions use. Each cell is an
// ordinary content-addressed job: cells already cached are served from
// disk without simulating, cells identical to an in-flight job (from a
// single submission or an overlapping sweep) coalesce onto it, and only
// genuinely new cells queue. The sweep itself is a pure aggregation
// layer — per-cell progress folds into one NDJSON stream, and the final
// result is a table keyed by each cell's axis coordinates and content
// address.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

// maxRetainedSweeps bounds finished sweeps kept addressable in memory.
const maxRetainedSweeps = 128

// sweepCellRef binds one expanded cell to how it is being satisfied:
// a cached result read at submission, or a job (owned or coalesced).
// Exactly one of cached/job is non-nil.
type sweepCellRef struct {
	cell   experiment.SweepCell
	cached *Result
	job    *job
}

// SweepProgress is one line of a sweep's NDJSON stream. Two line shapes
// interleave: aggregate lines (Cell empty) report completion across all
// cells, per-cell lines additionally carry the progressing cell's content
// address and its own fraction (throttled to ~10% steps per cell, plus
// its terminal event with CellDone). The stream's terminal line is an
// aggregate line with done=true, the sweep's final status and the first
// failed cell's error, if any.
type SweepProgress struct {
	Cells     int     `json:"cells"`
	CellsDone int     `json:"cells_done"`
	Frac      float64 `json:"frac"`
	Cell      string  `json:"cell,omitempty"`      // per-cell line: cell content address
	CellFrac  float64 `json:"cell_frac,omitempty"` // per-cell line: that cell's completion
	CellDone  bool    `json:"cell_done,omitempty"` // per-cell line: cell reached a terminal state
	Done      bool    `json:"done,omitempty"`
	Status    string  `json:"status,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// sweepJob aggregates one accepted sweep. cells is immutable after
// construction; progress state accumulates under mu, fed by per-cell job
// subscriptions. Cell events arrive outside any job lock, so folding
// them may in turn snapshot cell jobs (lock order: Server.mu → sweep.mu
// → job.mu).
type sweepJob struct {
	id    string
	cells []sweepCellRef

	mu       sync.Mutex
	state    jobState
	fracs    []float64 // per-cell completion; terminal cells pin to 1
	done     int       // cells in a terminal state (incl. cached)
	events   []SweepProgress
	notify   chan struct{}
	lastEmit float64   // aggregate frac of the last throttled event
	cellEmit []float64 // per-cell frac of the last per-cell line (throttle)
	released bool      // DELETE already dropped this sweep's cell holds
}

// newSweepJob builds the aggregate over resolved cell refs. Cached cells
// start complete; the caller subscribes job cells and then seals.
func newSweepJob(id string, cells []sweepCellRef) *sweepJob {
	sw := &sweepJob{
		id:       id,
		cells:    cells,
		state:    stateRunning,
		fracs:    make([]float64, len(cells)),
		cellEmit: make([]float64, len(cells)),
		notify:   make(chan struct{}),
	}
	for i, c := range cells {
		if c.cached != nil {
			sw.fracs[i] = 1
			sw.done++
		}
	}
	return sw
}

// initCell folds a cell job's pre-subscription history into the
// aggregate; events after the subscription snapshot arrive via observe,
// so each terminal event is counted exactly once.
func (sw *sweepJob) initCell(i int, snap jobSnap) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if n := len(snap.events); n > 0 && snap.events[n-1].Frac > sw.fracs[i] {
		sw.fracs[i] = snap.events[n-1].Frac
	}
	if terminalState(snap.state) {
		sw.fracs[i] = 1
		sw.done++
	}
}

// observe folds one live event from cell i into the aggregate: a
// per-cell line first (throttled), then the aggregate line — so the
// sweep-terminal aggregate event is always the stream's last line.
func (sw *sweepJob) observe(i int, p metrics.Progress) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if p.Frac > sw.fracs[i] {
		sw.fracs[i] = p.Frac
	}
	if p.Done {
		sw.fracs[i] = 1
		sw.done++
	}
	sw.emitCellLocked(i, p.Done)
	sw.emitLocked(p.Done)
}

// emitCellLocked appends a per-cell progress line (throttled to ~10%
// steps per cell; a cell's terminal event always emits). Callers hold
// sw.mu.
func (sw *sweepJob) emitCellLocked(i int, done bool) {
	if terminalState(sw.state) {
		return
	}
	f := sw.fracs[i]
	if !done && f < sw.cellEmit[i]+0.1 {
		return
	}
	sw.cellEmit[i] = f
	n := len(sw.cells)
	total := 0.0
	for _, fr := range sw.fracs {
		total += fr
	}
	sw.events = append(sw.events, SweepProgress{
		Cells: n, CellsDone: sw.done, Frac: total / float64(n),
		Cell: sw.cells[i].cell.Key, CellFrac: f, CellDone: done,
	})
	close(sw.notify)
	sw.notify = make(chan struct{})
}

// seal emits the initial aggregate event — or the terminal one, when
// every cell was served from cache or finished before sealing.
func (sw *sweepJob) seal() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.emitLocked(true)
}

// emitLocked appends an aggregate progress event (throttled to ~1% steps
// unless force, e.g. a cell completing) and, once every cell is
// terminal, the sweep's terminal event. Callers hold sw.mu.
func (sw *sweepJob) emitLocked(force bool) {
	if terminalState(sw.state) {
		return
	}
	n := len(sw.cells)
	total := 0.0
	for _, f := range sw.fracs {
		total += f
	}
	frac := total / float64(n)
	if sw.done == n {
		st, errMsg := sw.terminalStatusLocked()
		sw.state = st
		sw.events = append(sw.events, SweepProgress{
			Cells: n, CellsDone: n, Frac: frac,
			Done: true, Status: string(st), Error: errMsg,
		})
	} else {
		if !force && frac < sw.lastEmit+0.01 {
			return
		}
		sw.lastEmit = frac
		sw.events = append(sw.events, SweepProgress{Cells: n, CellsDone: sw.done, Frac: frac})
	}
	close(sw.notify)
	sw.notify = make(chan struct{})
}

// terminalStatusLocked derives the sweep's final state from its cells:
// any failed cell fails the sweep, else any cancelled cell marks it
// cancelled, else done. Returns the first failing cell's error.
func (sw *sweepJob) terminalStatusLocked() (jobState, string) {
	st := stateDone
	errMsg := ""
	for _, c := range sw.cells {
		if c.job == nil {
			continue
		}
		snap := c.job.snapshot()
		switch snap.state {
		case stateFailed:
			if errMsg == "" {
				errMsg = snap.errMsg
			}
			st = stateFailed
		case stateCancelled:
			if st != stateFailed {
				st = stateCancelled
			}
		}
	}
	return st, errMsg
}

// snapshot returns the sweep's state, aggregate event history and the
// channel that closes on the next append — atomically.
func (sw *sweepJob) snapshot() (jobState, []SweepProgress, chan struct{}) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state, sw.events, sw.notify
}

// sweepCellStatus is one row of the sweep result table, keyed by the
// cell's axis coordinates and content address.
type sweepCellStatus struct {
	Key    string                 `json:"key"`
	Axes   []experiment.AxisValue `json:"axes"`
	JobID  string                 `json:"job_id,omitempty"`
	Status string                 `json:"status"`
	Cached bool                   `json:"cached,omitempty"`
	Frac   float64                `json:"frac"`
	Error  string                 `json:"error,omitempty"`
	Mean   *metrics.Summary       `json:"mean,omitempty"`
}

// sweepResponse is the POST /v1/sweeps and GET /v1/sweeps/{id} reply:
// sweep status plus the per-cell result table. CellsCached counts over
// the whole sweep regardless of pagination; Cells holds the requested
// window (Offset..Offset+len(Cells) of CellsTotal).
type sweepResponse struct {
	SweepID     string            `json:"sweep_id"`
	Status      string            `json:"status"`
	Frac        float64           `json:"frac"`
	CellsTotal  int               `json:"cells_total"`
	CellsCached int               `json:"cells_cached"`
	CellsDone   int               `json:"cells_done"`
	Offset      int               `json:"offset,omitempty"`
	Cells       []sweepCellStatus `json:"cells"`
}

// sweepStatus assembles the reply. Aggregate numbers come from one sw.mu
// acquisition; per-cell rows from each cell's atomic job snapshot. The
// table window is cells[offset : offset+limit] (limit < 0 means all) —
// a >100-cell grid's status reply need not ship thousands of rows to a
// client that only wants the aggregate or one page.
func sweepStatus(sw *sweepJob, offset, limit int) sweepResponse {
	sw.mu.Lock()
	st := sw.state
	done := sw.done
	total := 0.0
	for _, f := range sw.fracs {
		total += f
	}
	sw.mu.Unlock()
	resp := sweepResponse{
		SweepID:    sw.id,
		Status:     string(st),
		Frac:       total / float64(len(sw.cells)),
		CellsTotal: len(sw.cells),
		CellsDone:  done,
	}
	offset = min(max(offset, 0), len(sw.cells))
	end := len(sw.cells)
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	resp.Offset = offset
	for i := range sw.cells {
		c := &sw.cells[i]
		if c.cached != nil {
			resp.CellsCached++ // counted sweep-wide, not per page
		}
		if i < offset || i >= end {
			continue
		}
		cs := sweepCellStatus{Key: c.cell.Key, Axes: c.cell.Axes}
		if c.cached != nil {
			mean := c.cached.Mean
			cs.Status = string(stateDone)
			cs.Cached = true
			cs.Frac = 1
			cs.Mean = &mean
		} else {
			snap := c.job.snapshot()
			cs.JobID = c.job.id
			cs.Status = string(snap.state)
			cs.Error = snap.errMsg
			if n := len(snap.events); n > 0 {
				cs.Frac = snap.events[n-1].Frac
			}
			if snap.result != nil {
				mean := snap.result.Mean
				cs.Mean = &mean
			}
		}
		resp.Cells = append(resp.Cells, cs)
	}
	return resp
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	spec, err := experiment.ParseSweepSpec(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cells, err := spec.Cells() // resolves, validates and addresses every cell
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	// A half-admitted grid helps nobody: admit refuses the sweep whole.
	adm, units, code, err := s.admit(cells)
	if err != nil {
		s.m.sweepRejected.Add(1)
		writeErr(w, code, err)
		return
	}
	refs := make([]sweepCellRef, len(adm))
	started := 0
	for i := range adm {
		refs[i] = adm[i].sweepCellRef
		if adm[i].started {
			started++
		}
	}
	s.mu.Lock()
	s.m.sweepSubmissions.Add(1)
	s.nextID++
	sw := newSweepJob(fmt.Sprintf("s%d", s.nextID), refs)
	s.sweeps[sw.id] = sw
	s.sweepRing = append(s.sweepRing, sw.id)
	s.pruneSweepsLocked()
	s.mu.Unlock()

	s.log.Info("sweep accepted", "sweep", sw.id, "cells", len(refs), "started", started)
	for _, u := range units {
		for _, j := range u {
			s.log.Info("job accepted", "job", j.id, "key", j.key, "sweep", sw.id)
		}
	}
	// Launch: locally, or — on a coordinator — as the plan's dispatch
	// units, which keep each trace group's record-then-replay chain on
	// one worker (see fabric.go).
	s.startJobs(units)
	// Subscribe to every cell job, folding its history and every later
	// event into the aggregate, then seal — which emits the terminal
	// event right away when every cell was already satisfied.
	for i := range sw.cells {
		j := sw.cells[i].job
		if j == nil {
			continue
		}
		i := i
		sw.initCell(i, j.subscribe(func(p metrics.Progress) { sw.observe(i, p) }))
	}
	sw.seal()

	resp := sweepStatus(sw, 0, -1)
	code = http.StatusAccepted
	if terminalState(jobState(resp.Status)) {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

// pruneSweepsLocked drops the oldest finished sweeps beyond the
// retention ring (s.mu must be held; live sweeps are never dropped, so
// the ring can transiently exceed the cap under a huge live backlog).
func (s *Server) pruneSweepsLocked() {
	for len(s.sweepRing) > maxRetainedSweeps {
		dropped := false
		for i, id := range s.sweepRing {
			if st, _, _ := s.sweeps[id].snapshot(); terminalState(st) {
				delete(s.sweeps, id)
				s.sweepRing = append(s.sweepRing[:i], s.sweepRing[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return
		}
	}
}

func (s *Server) lookupSweep(w http.ResponseWriter, r *http.Request) *sweepJob {
	s.mu.Lock()
	sw := s.sweeps[r.PathValue("id")]
	s.mu.Unlock()
	if sw == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
	}
	return sw
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw := s.lookupSweep(w, r)
	if sw == nil {
		return
	}
	offset, limit, err := pageParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, sweepStatus(sw, offset, limit))
}

// pageParams parses ?offset=N&limit=M. Absent offset is 0; absent limit
// means the whole table.
func pageParams(r *http.Request) (offset, limit int, err error) {
	limit = -1
	q := r.URL.Query()
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q", v)
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	return offset, limit, nil
}

// sweepListEntry is one row of GET /v1/sweeps: the aggregate view of a
// sweep, without its cell table.
type sweepListEntry struct {
	SweepID    string  `json:"sweep_id"`
	Status     string  `json:"status"`
	Frac       float64 `json:"frac"`
	CellsTotal int     `json:"cells_total"`
	CellsDone  int     `json:"cells_done"`
}

// handleSweepList serves GET /v1/sweeps: every retained sweep in
// creation order (the retention ring bounds the list; dropped sweeps'
// cell results remain addressable through the result store by key).
func (s *Server) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sws := make([]*sweepJob, 0, len(s.sweeps))
	for _, id := range s.sweepRing {
		if sw := s.sweeps[id]; sw != nil {
			sws = append(sws, sw)
		}
	}
	s.mu.Unlock()
	list := make([]sweepListEntry, 0, len(sws)) // [] not null when empty
	for _, sw := range sws {
		sw.mu.Lock()
		total := 0.0
		for _, f := range sw.fracs {
			total += f
		}
		list = append(list, sweepListEntry{
			SweepID:    sw.id,
			Status:     string(sw.state),
			Frac:       total / float64(len(sw.cells)),
			CellsTotal: len(sw.cells),
			CellsDone:  sw.done,
		})
		sw.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string][]sweepListEntry{"sweeps": list})
}

// handleSweepStream replays and follows the sweep's aggregate progress
// as NDJSON — one SweepProgress per line — until the sweep ends.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	sw := s.lookupSweep(w, r)
	if sw == nil {
		return
	}
	s.m.streamSubs.Add(1)
	defer s.m.streamSubs.Add(-1)
	streamNDJSON(w, r, func() ([]SweepProgress, chan struct{}) {
		_, events, notify := sw.snapshot()
		return events, notify
	}, func(p SweepProgress) bool { return p.Done })
}

// handleCancelSweep cancels a sweep's remaining work: every cell hold the
// sweep took is released, and cells nobody else references (no direct
// submission, no overlapping sweep) are cancelled. Cells shared with
// other submissions keep running for their other holders.
func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	sw := s.lookupSweep(w, r)
	if sw == nil {
		return
	}
	sw.mu.Lock()
	st := sw.state
	already := sw.released
	sw.released = true
	sw.mu.Unlock()
	if terminalState(st) {
		writeErr(w, http.StatusConflict, fmt.Errorf("sweep %s already %s", sw.id, st))
		return
	}
	if !already {
		var cancels []*job
		s.mu.Lock()
		for i := range sw.cells {
			j := sw.cells[i].job
			if j == nil {
				continue
			}
			j.holders--
			if j.holders <= 0 {
				cancels = append(cancels, j)
			}
		}
		s.mu.Unlock()
		for _, j := range cancels {
			j.cancel()
		}
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"sweep_id": sw.id, "status": "cancelling"})
}
