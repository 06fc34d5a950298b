package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/server"
)

// The dtnd-mixed traffic: sharedSpecs cacheable specs (the bodies loadgen
// submits) and uniqueFrac never-seen specs that each cost a tiny
// simulation.
const (
	sharedSpecs = 8
	uniqueFrac  = 0.05
	// latencyLimit is the open-loop p99 limit loadgen.max_rate_ok is
	// judged by; a window whose generator ends further behind schedule
	// than this has a growing backlog.
	latencyLimit = 10 * time.Millisecond
	// A measuring cycle is a closed-loop window then an open-loop window.
	// Many short windows, each summarised by its median, keep a burst of
	// load from elsewhere on the machine from setting the run's result.
	closedWindow = 900 * time.Millisecond
	openWindow   = 1100 * time.Millisecond
)

func specBody(seed int64) string {
	return fmt.Sprintf(`{"preset":"quick","protocol":"Direct","nodes":12,"duration":200,"seeds":[%d]}`, seed)
}

// request is one submission of the mix: shared spec index shared, or a
// never-seen seed when unique is non-zero.
type request struct {
	shared int
	unique int64
}

func (r request) body() string {
	if r.unique != 0 {
		return specBody(r.unique)
	}
	return specBody(int64(r.shared) + 1)
}

// mix draws requests: the same seed gives the same sequence of draws.
type mix struct {
	rng  *rand.Rand
	next int64 // last unique seed handed out
}

func newMix(seed int64) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed)), next: 50_000_000 + seed*1_000_000}
}

func (m *mix) draw() request {
	if m.rng.Float64() < uniqueFrac {
		m.next++
		return request{unique: m.next}
	}
	return request{shared: m.rng.Intn(sharedSpecs)}
}

// daemon is one in-process dtnd behind a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	dir    string
	base   string
	client *http.Client
	warm   [sharedSpecs][]byte // each shared spec's cached result bytes
}

// startDaemon starts a daemon and the one client connection the workload
// speaks to it over. A single connection leaves the second CPU of a 2-vCPU
// machine to the daemon and its simulations; with one per CPU, client and
// daemon contended for every CPU and the run-to-run spread of op_ms and
// throughput was about twice as wide.
func startDaemon(dir string) (*daemon, error) {
	// A queue this deep never refuses the open loop's unique jobs: a
	// backlog shows as latency and lateness, not as failed requests.
	srv, err := server.New(server.Config{CacheDir: dir, MaxQueuedJobs: 1 << 16})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains accepted jobs, shuts the listener and waits for the serve
// loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errDrain := d.srv.Drain(ctx)
	errShut := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errShut = errors.Join(errShut, err)
	}
	d.srv.Close()
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
	return errors.Join(errDrain, errShut)
}

// submitReply is the part of a POST /v1/jobs reply the checks read.
type submitReply struct {
	JobID  string          `json:"job_id"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func (d *daemon) post(body string) (int, submitReply, error) {
	var rep submitReply
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, rep, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, rep, err
	}
	if resp.StatusCode < 300 {
		err = json.Unmarshal(data, &rep)
	}
	return resp.StatusCode, rep, err
}

// await follows a job's NDJSON progress stream to its terminal line.
func (d *daemon) await(id string) error {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s stream: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("job %s stream: %w", id, err)
		}
		if p.Done {
			if p.Error != "" {
				return fmt.Errorf("job %s: %s", id, p.Error)
			}
			return nil
		}
	}
	return fmt.Errorf("job %s stream ended without a terminal line", id)
}

// do sends one request and checks the reply: a cached reply must repeat
// the warm-up result byte for byte; a unique job must be accepted and, when
// wait is set, run to completion.
func (d *daemon) do(r request, wait bool) bool {
	code, rep, err := d.post(r.body())
	switch {
	case err != nil:
		return false
	case r.unique != 0:
		if code != http.StatusAccepted {
			return false
		}
		return !wait || d.await(rep.JobID) == nil
	default:
		return code == http.StatusOK && rep.Cached && bytes.Equal(rep.Result, d.warm[r.shared])
	}
}

// warmUp computes every shared spec, then submits each once more and keeps
// the cached reply's result bytes: what every later cached reply must
// repeat.
func (d *daemon) warmUp() error {
	for i := 0; i < sharedSpecs; i++ {
		body := request{shared: i}.body()
		code, rep, err := d.post(body)
		if err != nil {
			return err
		}
		if code == http.StatusAccepted {
			if err := d.await(rep.JobID); err != nil {
				return err
			}
		}
		code, rep, err = d.post(body)
		if err != nil {
			return err
		}
		if code != http.StatusOK || !rep.Cached || len(rep.Result) == 0 {
			return fmt.Errorf("warm-up: spec %d not served from the cache (status %d)", i, code)
		}
		d.warm[i] = rep.Result
	}
	return nil
}

// scrape is one read of the daemon's /metrics.
type scrape struct {
	values map[string]float64 // sample name, with labels, to value
	lat    *loadgen.ServerLatency
}

func (d *daemon) scrape() (*scrape, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	lat, err := loadgen.ParseServerLatency(string(body))
	if err != nil {
		return nil, err
	}
	s := &scrape{values: map[string]float64{}, lat: lat}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s.values[line[:i]] = v
		}
	}
	return s, nil
}

// delta is the growth of a counter from scrape a to scrape b.
func (a *scrape) delta(b *scrape, name string) float64 { return b.values[name] - a.values[name] }

// runDtnd measures the service-bound case: an in-process dtnd whose
// simulations are tiny, so HTTP, admission and result-store reads
// dominate. Measuring alternates two windows. In a closed-loop window a
// synchronous client sends the mix (95% cached, 5% unique jobs it
// waits for); its request rate is a throughput sample. In an open-loop
// window the same mix is sent on a fixed schedule, each request timed from
// its due time; the window's median latency is an op_ms sample. Traced
// runs also step an open-loop rate ladder for loadgen.max_rate_ok.
func runDtnd(e *env, sc scale) (*result, error) {
	var d *daemon
	n := 0
	err := e.setup(func(last bool) error {
		n++
		var err error
		if d, err = startDaemon(filepath.Join(e.scratch, fmt.Sprintf("dtnd%d", n))); err != nil {
			return err
		}
		if err := d.warmUp(); err != nil {
			return errors.Join(err, d.stop())
		}
		for i := 0; i < sc.dtndWarmReqs; i++ {
			if !d.do(request{shared: i % sharedSpecs}, false) {
				return errors.Join(errors.New("warm-up request failed"), d.stop())
			}
		}
		if !last {
			return d.stop()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	for i, raw := range d.warm {
		res.output(fmt.Sprintf("dtnd-mixed/warm%d", i), json.RawMessage(raw))
	}
	m := newMix(e.seed)
	var reqID int64
	// send sends r and checks the reply, inside a span starting at at when
	// the window is traced.
	send := func(r request, wait, traced bool, parent *span, at time.Time) bool {
		reqID++
		if !traced {
			return d.do(r, wait)
		}
		sp := e.spans.beginAt("POST /v1/jobs", parent, at)
		sp.req = reqID
		defer e.spans.end(sp)
		return d.do(r, wait)
	}
	tally := func(name string, count, failed int) {
		res.attempted += count
		res.failed += failed
		if failed > 0 {
			res.errs = append(res.errs, fmt.Sprintf("%s: %d of %d requests failed or did not match the warm-up result", name, failed, count))
		}
	}

	// closed runs one closed-loop window and returns its request rate.
	closed := func(traced bool) float64 {
		parent := e.spans.begin("closed loop", e.root)
		defer e.spans.end(parent)
		count, failed := 0, 0
		start := time.Now()
		for deadline := start.Add(closedWindow); time.Now().Before(deadline); count++ {
			if !send(m.draw(), true, traced, parent, time.Now()) {
				failed++
			}
		}
		tally("closed loop", count, failed)
		return float64(count) / time.Since(start).Seconds()
	}

	// open runs one open-loop window at rate for dur.
	open := func(rate float64, dur time.Duration, traced bool) openResult {
		count := max(int(rate*dur.Seconds()), 1)
		plan := make([]request, count)
		for i := range plan {
			plan[i] = m.draw()
		}
		parent := e.spans.begin(fmt.Sprintf("open loop %g/s", rate), e.root)
		defer e.spans.end(parent)
		clk := realClock{t0: time.Now()}
		out := openLoop(clk, rate, count, func(i int, due time.Duration) bool {
			return send(plan[i], false, traced, parent, clk.t0.Add(due))
		})
		tally(fmt.Sprintf("open loop %g/s", rate), count, out.failed)
		return out
	}

	measure := e.seconds
	if e.traced {
		measure = e.seconds * 7 / 10 // the rest steps the rate ladder
	}
	cycles := max(int(measure/(closedWindow+openWindow)), 2)

	// One unrecorded cycle first: the first windows after set-up run
	// measurably slower while the daemon's queues and the heap settle.
	closed(false)
	open(sc.dtndRate, openWindow, false)
	if err := e.startMeasure(); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	var atRate openResult
	// Server-side view of the open windows (traced runs): submission
	// counters over all of them, handler time over the untraced ones.
	var subs, hits, coalesced, rejected, handlerSecs, handled float64
	var first *scrape
	for c := 0; c < cycles && err == nil; c++ {
		traced := e.traced && c%2 == 1
		res.rates = append(res.rates, closed(traced))
		var s0, s1 *scrape
		if e.traced {
			if s0, err = d.scrape(); err != nil {
				break
			}
			if first == nil {
				first = s0
			}
		}
		out := open(sc.dtndRate, openWindow, traced)
		if e.traced {
			if s1, err = d.scrape(); err != nil {
				break
			}
			if !traced {
				a, b := s0.lat.Classes["2xx"], s1.lat.Classes["2xx"]
				handlerSecs += b.Sum - a.Sum
				handled += float64(b.Count - a.Count)
			}
			subs += s0.delta(s1, "dtnd_submissions_total")
			hits += s0.delta(s1, "dtnd_submit_cache_hits_total")
			coalesced += s0.delta(s1, "dtnd_submit_coalesced_total")
			rejected += s0.delta(s1, "dtnd_submit_rejected_total")
		}
		if traced {
			res.tracedOpMs = append(res.tracedOpMs, median(out.latMs))
			continue
		}
		res.opMs = append(res.opMs, median(out.latMs))
		atRate.latMs = append(atRate.latMs, out.latMs...)
		atRate.lateMs = append(atRate.lateMs, out.lateMs...)
		atRate.failed += out.failed
		atRate.backlogMax = max(atRate.backlogMax, out.backlogMax)
	}
	if err != nil {
		e.stopMeasure()
		return nil, errors.Join(err, d.stop())
	}
	res.latMs = atRate.latMs

	if e.traced {
		// Server-side shares over the open windows, and the engine phases
		// of every job the daemon simulated during the measurement.
		last, err := d.scrape()
		if err != nil {
			e.stopMeasure()
			return nil, errors.Join(err, d.stop())
		}
		sv := &serverLayer{hitPct: pct(hits, subs), coalescedPct: pct(coalesced, subs), rejectedPct: pct(rejected, subs)}
		sv.simPct = pct(first.delta(last, "dtnd_jobs_simulated_total"), first.delta(last, "dtnd_submissions_total"))
		// Mean times, not medians: the daemon's duration histogram has a
		// 1 ms first bucket, too coarse for sub-millisecond requests, but
		// its sum is exact. The client's time runs from send, not due time.
		var clientMs float64
		for i := range atRate.latMs {
			clientMs += atRate.latMs[i] - atRate.lateMs[i]
		}
		if n := float64(len(atRate.latMs)); n > 0 && handled > 0 {
			clientMs /= n
			sv.clientOverheadPct = pct(max(clientMs-1000*handlerSecs/handled, 0), clientMs)
		}
		tm := &obs.Timing{ExchangeSeconds: first.delta(last, "dtnd_sim_exchange_seconds_total")}
		for _, ph := range obs.PhaseNames() {
			secs := first.delta(last, fmt.Sprintf("dtnd_sim_phase_seconds_total{phase=%q}", ph))
			tm.Phases = append(tm.Phases, obs.PhaseTiming{Phase: ph, Seconds: secs})
			tm.Seconds += secs
		}
		res.layers.timing = tm

		late := 0
		for _, l := range atRate.lateMs {
			if l > 1 {
				late++
			}
		}
		sv.latePct = pct(float64(late), float64(len(atRate.lateMs)))
		sv.backlogMax = float64(atRate.backlogMax)

		steps := map[float64]openResult{sc.dtndRate: atRate}
		for _, r := range sc.dtndLadder {
			steps[r] = open(r, e.seconds*15/100/time.Duration(len(sc.dtndLadder)), false)
		}
		for r, out := range steps {
			_, p99, _ := tail(out.latMs)
			endLate := out.lateMs[len(out.lateMs)-1]
			if out.failed == 0 && p99 <= ms(latencyLimit) && endLate <= ms(latencyLimit) && r > sv.maxRateOK {
				sv.maxRateOK = r
			}
		}
		res.layers.server = sv
	}
	if err := e.stopMeasure(); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	return res, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
