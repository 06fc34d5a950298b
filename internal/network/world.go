// Package network is the DTN simulation engine: nodes with movers, finite
// buffers and routers; spatial-hash contact detection each tick;
// bandwidth-limited one-at-a-time transfers per contact with abort on
// contact loss; TTL expiry; and delivery/relay accounting. Together with
// package sim it plays the role the ONE simulator played for the paper.
package network

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"repro/internal/buffer"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config holds the physical-layer parameters of a scenario. The paper's
// values: 10 m range, 2 Mb/s (250000 B/s), 0.1 s update interval.
type Config struct {
	// Range is the radio range in metres.
	Range float64
	// Bandwidth is the link throughput in bytes per second.
	Bandwidth float64
	// MaxSpeed is an upper bound on any node's speed in m/s. When set it
	// lets the contact detector skip distance checks of far-apart pairs
	// for provably safe spans (see grid.go). 0 means "no bound known":
	// detection stays exact but tracked pairs are re-checked every tick.
	MaxSpeed float64
	// Shards runs the per-tick work (mobility advance, cell-change
	// detection and re-bucketing, pair distance sweeps, expiry sweeps) on
	// that many workers, with deterministic merge phases on the caller
	// (see shard.go). 0 and 1 run one worker inline on the caller, with no
	// goroutines; AutoShards (-1) picks a GOMAXPROCS-derived count at New.
	// Every value produces bit-identical results; values beyond
	// GOMAXPROCS or the world size only add scheduling overhead.
	Shards int
}

// AutoShards, as Config.Shards, selects a GOMAXPROCS-derived shard count
// when the world is created.
const AutoShards = -1

// expirySweepEvery is the tick period of the expired-message purge.
const expirySweepEvery = 10

// DefaultConfig returns the paper's physical parameters.
func DefaultConfig() Config {
	return Config{Range: 10, Bandwidth: 250000}
}

// World owns the nodes and advances the DTN each tick.
type World struct {
	Metrics *metrics.Collector

	cfg    Config
	runner *sim.Runner
	nodes  []*Node

	// linkList holds a live world's active links in establishment order
	// (phase D sweeps it); a scripted world finds links through
	// Node.links and keeps it empty.
	linkList  []*Link
	freeLinks []*Link // torn-down links nothing refers to, for reuse

	grid      cellGrid
	sched     pairSched
	shard     shardScratch // live tick pipeline buffers
	newPairs  [][2]int32   // scratch: pairs that came into range this tick
	tickDt    float64      // runner tick interval, for re-check scheduling
	lastTick  float64
	tickCount uint64
	nextMsgID int
	started   bool

	// expiryFloor is a lower bound on every expiry time in any buffer's
	// expiry heap, stale entries included. A sweep at t drops nothing
	// while !(expiryFloor < t), DropExpired's own strict test, so it is
	// skipped. Start sets it from the buffers, each buffer add lowers it,
	// and each sweep that runs resets it to the buffers' minimum
	// NextExpiry. The zero value means "sweep".
	expiryFloor float64

	// onContact hooks observe every contact transition (trace recording).
	onContact []func(tick uint64, up bool, a, b int32)

	// Scripted replay state (script.go): when scripted, ticks fire the
	// recorded contact events instead of moving nodes.
	scripted  bool
	script    []trace.Event
	scriptPos int

	// prof, when non-nil, books per-phase wall time for live and scripted
	// ticks (obs package). nil — the default — costs one pointer check per
	// phase boundary; profiling never touches simulation state, so
	// results are bit-identical either way.
	prof *obs.EngineProf
}

// New returns an empty world driven by runner.
func New(cfg Config, runner *sim.Runner) *World {
	if cfg.Range <= 0 || cfg.Bandwidth <= 0 {
		panic("network: range and bandwidth must be positive")
	}
	if cfg.Shards < 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	w := &World{
		Metrics: metrics.New(),
		cfg:     cfg,
		runner:  runner,
		tickDt:  runner.Tick,
	}
	runner.AddTicker(w)
	return w
}

// Config returns the physical configuration.
func (w *World) Config() Config { return w.cfg }

// SetProfiler attaches an engine profiler (nil detaches). The profiler
// observes wall time only — a profiled run is bit-identical to an
// unprofiled one. Callers normally share one profiler between the world
// and its runner (sim.Runner.Prof) so event time and tick time land in
// one Timing block.
func (w *World) SetProfiler(p *obs.EngineProf) {
	w.prof = p
	if w.cfg.Shards > 1 {
		p.EnsureShards(w.cfg.Shards)
	}
}

// Runner returns the simulation driver.
func (w *World) Runner() *sim.Runner { return w.runner }

// Now returns the current simulated time.
func (w *World) Now() float64 { return w.runner.Now() }

// Nodes returns all nodes (shared; do not mutate).
func (w *World) Nodes() []*Node { return w.nodes }

// Node returns the node with the given id.
func (w *World) Node(id int) *Node { return w.nodes[id] }

// N returns the number of nodes.
func (w *World) N() int { return len(w.nodes) }

// AddNode creates a node with the given mover, buffer and router. Nodes
// must all be added before Start.
func (w *World) AddNode(m mobility.Mover, buf *buffer.Buffer, r Router) *Node {
	if w.started {
		panic("network: AddNode after Start")
	}
	n := &Node{
		ID:     len(w.nodes),
		Mover:  m,
		Buf:    buf,
		Router: r,
		pos:    m.Pos(),
	}
	w.nodes = append(w.nodes, n)
	return n
}

// Start initialises every router. It must be called once, after all nodes
// are added and before the runner runs.
func (w *World) Start() {
	if w.started {
		panic("network: Start called twice")
	}
	w.started = true
	if !w.scripted {
		// A scripted world never touches the detector: skip its state.
		// One grid region (sub-grid) per shard worker so phase A2
		// re-buckets in parallel; one worker keeps the single
		// unpartitioned table.
		regions := 1
		if w.cfg.Shards > 1 {
			regions = w.cfg.Shards
		}
		w.grid.init(w.cellSize(), regions)
		w.grid.ensure(len(w.nodes))
		w.sched.init(len(w.nodes))
		w.shard.init(max(w.cfg.Shards, 1), regions)
	}
	// Nothing expires before -Inf: this only reads the buffers' floor.
	_, w.expiryFloor = dropExpired(w.nodes, math.Inf(-1))
	for _, n := range w.nodes {
		n.Router.Init(n, w)
	}
}

// CreateMessage injects a new message at node from destined to node to,
// asks the router for its quota, and buffers the source copy. It returns
// the message (nil if the source buffer refused it).
func (w *World) CreateMessage(t float64, from, to, size int, ttl float64) *msg.Message {
	if from == to {
		panic("network: message source equals destination")
	}
	w.nextMsgID++
	m := &msg.Message{ID: w.nextMsgID, From: from, To: to, Size: size, Created: t, Expire: t + ttl}
	w.Metrics.MessageCreated(m.ID, t)
	src := w.nodes[from]
	c := msg.NewCopy(m, src.Router.InitialReplicas(m))
	w.noteExpiry(m.Expire)
	dropped, ok := src.Buf.Add(t, c)
	for range dropped {
		w.Metrics.MessageDropped()
	}
	if !ok {
		w.Metrics.MessageRefused()
		return nil
	}
	src.Router.Created(t, c)
	w.wake(src, t)
	return m
}

// wake re-pumps every active link of n — a new relay opportunity appeared.
func (w *World) wake(n *Node, t float64) {
	for _, l := range n.links {
		l.pump(w, t)
	}
}

// Tick implements sim.Ticker: a scripted world fires its recorded
// contact events (script.go); a live one runs the tick pipeline
// (shard.go), whose results are bit-identical for every Config.Shards.
func (w *World) Tick(t float64) {
	if w.scripted {
		w.tickScripted(t)
		return
	}
	w.tickLive(t)
}

// establishNewContacts fires contactUp for every pair in ascending pair
// order. The handful of pairs per tick makes insertion sort
// allocation-free and cheap. It consumes the slice (w.newPairs scratch).
func (w *World) establishNewContacts(newPairs [][2]int32, t float64) {
	for i := 1; i < len(newPairs); i++ {
		p := newPairs[i]
		j := i
		for ; j > 0 && (newPairs[j-1][0] > p[0] || (newPairs[j-1][0] == p[0] && newPairs[j-1][1] > p[1])); j-- {
			newPairs[j] = newPairs[j-1]
		}
		newPairs[j] = p
	}
	for _, p := range newPairs {
		w.contactUp(w.nodes[p[0]], w.nodes[p[1]], t)
	}
	w.newPairs = newPairs[:0]
}

// chebWithin1 reports |a-b| <= 1.
func chebWithin1(a, b int32) bool {
	d := a - b
	return d >= -1 && d <= 1
}

// recheckDelay returns how many ticks the next distance check of an
// out-of-range pair at squared distance d2 may safely be deferred. With
// both nodes bounded by MaxSpeed, their distance shrinks at most
// 2*MaxSpeed metres per second, so a pair (D-Range) metres past the radio
// edge cannot close the gap in fewer than (D-Range)/(2*MaxSpeed) seconds.
// A small absolute margin absorbs floating-point drift in the mover
// arithmetic.
func (w *World) recheckDelay(d2 float64) uint64 {
	if w.cfg.MaxSpeed <= 0 {
		return 1
	}
	slack := math.Sqrt(d2) - w.cfg.Range - 1e-9
	if slack <= 0 {
		return 1
	}
	ticks := int(slack / (2 * w.cfg.MaxSpeed * w.tickDt))
	if ticks < 1 {
		return 1
	}
	if ticks > wheelSize-1 {
		return wheelSize - 1
	}
	return uint64(ticks)
}

func (w *World) contactUp(a, b *Node, t float64) {
	for _, f := range w.onContact {
		f(w.tickCount, true, int32(a.ID), int32(b.ID))
	}
	w.Metrics.ContactStarted()
	var l *Link
	if n := len(w.freeLinks); n > 0 {
		l, w.freeLinks = w.freeLinks[n-1], w.freeLinks[:n-1]
	} else {
		l = newLink(w)
	}
	// A torn-down link's abort already zeroed cur and ev (checkFreeLinks
	// in the tests pins that), so only the identity and turn state reset.
	l.a, l.b, l.turn, l.gone = a, b, 0, false
	if !w.scripted {
		w.linkList = append(w.linkList, l)
	}
	a.addLink(l)
	b.addLink(l)
	ex := w.prof.Start()
	a.Router.ContactUp(t, b)
	b.Router.ContactUp(t, a)
	w.prof.Exchange(ex)
	l.pump(w, t)
}

// contactDown tears l down and marks it gone. A live tick drops it from
// linkList with dropGoneLinks once all of the tick's downs fired, which
// recycles it; a scripted world holds no other reference and recycles it
// here.
func (w *World) contactDown(l *Link, t float64) {
	l.gone = true
	for _, f := range w.onContact {
		f(w.tickCount, false, int32(l.a.ID), int32(l.b.ID))
	}
	l.abort(w)
	l.a.removeLink(l)
	l.b.removeLink(l)
	ex := w.prof.Start()
	l.a.Router.ContactDown(t, l.b)
	l.b.Router.ContactDown(t, l.a)
	w.prof.Exchange(ex)
	if w.scripted {
		w.freeLinks = append(w.freeLinks, l)
	}
}

// dropGoneLinks removes torn-down links from linkList, keeping the rest in
// establishment order, and recycles them. Live ticks batch their downs and
// compact once.
func (w *World) dropGoneLinks() {
	keep := w.linkList[:0]
	for _, l := range w.linkList {
		if l.gone {
			w.freeLinks = append(w.freeLinks, l)
		} else {
			keep = append(keep, l)
		}
	}
	w.linkList = keep
}

// completeTransfer applies a finished transfer: delivery or relay, quota
// bookkeeping, router notifications, and the next pump.
func (w *World) completeTransfer(l *Link, t float64) {
	// Copy the transfer out before anything below can pump l again: a
	// wake may start l's next transfer in l.cur.
	plan, from, to := l.cur.plan, l.cur.from, l.cur.to
	l.cur = transfer{}

	senderCopy := from.Copy(plan.Msg.ID)
	if senderCopy == nil {
		// The sender's buffer evicted the message mid-transfer; the data
		// cannot complete.
		w.Metrics.TransferAborted()
		l.pump(w, t)
		return
	}
	w.Metrics.MessageRelayed()

	m := plan.Msg
	switch {
	case m.To == to.ID:
		// Final delivery. Late (expired) arrivals count as relays only.
		if !m.Expired(t) && !to.deliveredHere.Has(m.ID) {
			to.deliveredHere.Add(m.ID)
			w.Metrics.MessageDelivered(m.ID, t, senderCopy.Hops+1)
		}
		// Both endpoints now know the message is done.
		from.LearnDelivered(m.ID)
		to.LearnDelivered(m.ID)
		from.Buf.Remove(m.ID)
		from.Router.Sent(t, plan, to, true)
		w.wake(from, t)
	case to.HasCopy(m.ID):
		// A copy raced in from a third node mid-flight. Nothing changes;
		// the bytes were still spent.
		from.Router.Sent(t, plan, to, false)
	default:
		nc := senderCopy.Fork(plan.Give, t)
		w.noteExpiry(m.Expire)
		dropped, ok := to.Buf.Add(t, nc)
		for range dropped {
			w.Metrics.MessageDropped()
		}
		if ok {
			switch {
			case plan.KeepAfter == 0:
				from.Buf.Remove(m.ID)
			case plan.KeepAfter > 0:
				senderCopy.Replicas = plan.KeepAfter
			}
			from.Router.Sent(t, plan, to, false)
			to.Router.Received(t, nc, from)
			w.wake(to, t)
			w.wake(from, t)
		} else {
			w.Metrics.MessageRefused()
			from.Router.Sent(t, plan, to, false)
		}
	}
	l.pump(w, t)
}

// noteExpiry lowers the expiry floor for a copy about to be buffered.
func (w *World) noteExpiry(at float64) {
	if at < w.expiryFloor {
		w.expiryFloor = at
	}
}

// sweepDue reports whether this tick is an expiry-sweep tick on which
// some buffered copy can have expired by t.
func (w *World) sweepDue(t float64) bool {
	return w.tickCount%expirySweepEvery == 0 && w.expiryFloor < t
}

// sweepExpired purges expired copies from every buffer and resets the
// expiry floor to what is left.
func (w *World) sweepExpired(t float64) {
	n, floor := dropExpired(w.nodes, t)
	w.Metrics.MessagesExpired(n)
	w.expiryFloor = floor
}

// dropExpired purges copies expired at t from nodes' buffers. It returns
// how many it purged and the earliest NextExpiry left among them (+Inf if
// none; a NaN expiry never compares below, and never expires either).
func dropExpired(nodes []*Node, t float64) (int, float64) {
	n, floor := 0, math.Inf(1)
	for _, nd := range nodes {
		n += len(nd.Buf.DropExpired(t))
		if e := nd.Buf.NextExpiry(); e < floor {
			floor = e
		}
	}
	return n, floor
}

// DumpState returns a human-readable snapshot for debugging.
func (w *World) DumpState() string {
	var sb strings.Builder
	links := 0
	for _, n := range w.nodes {
		links += len(n.links)
	}
	fmt.Fprintf(&sb, "t=%.1f nodes=%d links=%d\n", w.Now(), len(w.nodes), links/2)
	for _, n := range w.nodes {
		fmt.Fprintf(&sb, "  node %d at %v buf=%d/%dB msgs=%d\n", n.ID, n.pos, n.Buf.Used(), n.Buf.Capacity(), n.Buf.Len())
	}
	return sb.String()
}
