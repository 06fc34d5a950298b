package network

import (
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// idleRouter never transfers and allocates nothing.
type idleRouter struct{}

func (idleRouter) Init(*Node, *World)                 {}
func (idleRouter) InitialReplicas(*msg.Message) int   { return 1 }
func (idleRouter) ContactUp(float64, *Node)           {}
func (idleRouter) ContactDown(float64, *Node)         {}
func (idleRouter) NextTransfer(float64, *Node) *Plan  { return nil }
func (idleRouter) Created(float64, *msg.Copy)         {}
func (idleRouter) Received(float64, *msg.Copy, *Node) {}
func (idleRouter) Sent(float64, *Plan, *Node, bool)   {}

// planRouter offers one preallocated plan each time it is armed.
type planRouter struct {
	idleRouter
	plan  *Plan
	armed bool
}

func (r *planRouter) NextTransfer(_ float64, peer *Node) *Plan {
	if !r.armed || peer.HasCopy(r.plan.Msg.ID) {
		return nil
	}
	r.armed = false
	return r.plan
}

// replicator offers a 1-quota copy of every buffered message the peer
// lacks, in buffer order.
type replicator struct {
	idleRouter
	self *Node
}

func (r *replicator) Init(self *Node, _ *World) { r.self = self }
func (r *replicator) NextTransfer(_ float64, peer *Node) *Plan {
	for _, c := range r.self.Buf.All() {
		if !peer.HasCopy(c.M.ID) && !(c.M.To == peer.ID && peer.DeliveredHere(c.M.ID)) {
			return Replicate(c)
		}
	}
	return nil
}

// upDownScript brings pair (a, b) up on odd ticks and down on even ones,
// for the given number of cycles.
func upDownScript(a, b int32, cycles int) []trace.Event {
	ev := make([]trace.Event, 0, 2*cycles)
	for c := range cycles {
		tick := uint64(2*c + 1)
		ev = append(ev, trace.Event{Tick: tick, Up: true, A: a, B: b}, trace.Event{Tick: tick + 1, A: a, B: b})
	}
	return ev
}

// scriptedWorld builds a scripted world of the given routers (tick 1 s,
// 1000 B/s) that will replay events.
func scriptedWorld(routers []Router, events []trace.Event) (*World, *sim.Runner) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	for _, r := range routers {
		w.AddNode(fixed(0, 0), buffer.New(0, nil), r)
	}
	w.SetContactScript(events)
	w.Start()
	return w, runner
}

// TestScriptedContactCycleZeroAlloc: once warm, a scripted contact that
// comes up and goes down without traffic allocates nothing — the link is
// recycled.
func TestScriptedContactCycleZeroAlloc(t *testing.T) {
	w, runner := scriptedWorld([]Router{idleRouter{}, idleRouter{}}, upDownScript(0, 1, 300))
	now := 0.0
	cycle := func() {
		now += 2
		runner.Run(now)
	}
	cycle()
	allocs := testing.AllocsPerRun(200, cycle)
	if got := w.Metrics.Summary().Contacts; got != 202 {
		t.Fatalf("contacts = %d, want 202 (one per cycle)", got)
	}
	if allocs != 0 {
		t.Fatalf("scripted up/down cycle allocates %.1f objects, want 0", allocs)
	}
}

// transferCycleAllocsBefore is what one scripted up / transfer / down
// cycle of TestScriptedTransferCycleAllocs allocated while every contact
// allocated its *Link and every transfer its transfer record and
// completion closure.
const transferCycleAllocsBefore = 4

// TestScriptedTransferCycleAllocs: a cycle of contact up, one relay from
// a preallocated plan, and contact down allocates three objects fewer
// than before: the link (as in TestScriptedContactCycleZeroAlloc), its
// transfer record and its completion closure. What is left is the relay
// itself (the receiver's copy).
func TestScriptedTransferCycleAllocs(t *testing.T) {
	sender := &planRouter{}
	w, runner := scriptedWorld([]Router{sender, idleRouter{}, idleRouter{}}, upDownScript(0, 1, 300))
	m := w.CreateMessage(0, 0, 2, 500, 1e9) // 0.5 s relays to node 1, destined to node 2
	sender.plan = Replicate(w.Node(0).Copy(m.ID))
	now := 0.0
	cycle := func() {
		sender.armed = true
		now += 2
		runner.Run(now)
		w.Node(1).Buf.Remove(m.ID)
	}
	cycle()
	allocs := testing.AllocsPerRun(200, cycle)
	if got := w.Metrics.Summary().Relays; got != 202 {
		t.Fatalf("relays = %d, want 202 (one per cycle)", got)
	}
	if want := float64(transferCycleAllocsBefore - 3); allocs != want {
		t.Fatalf("up/transfer/down cycle allocates %.1f objects, want %.0f", allocs, want)
	}
}

// TestRecycledLinkNoStaleCompletion: pairs go down mid-transfer and come
// back up in the same scripted tick, so the new contact reuses a link
// whose completion was pending — its own or the other pair's (the free
// list is LIFO). No cancelled completion may fire: the run must end with
// exactly the summary it had before links were recycled.
func TestRecycledLinkNoStaleCompletion(t *testing.T) {
	up := func(tick uint64, a, b int32) trace.Event { return trace.Event{Tick: tick, Up: true, A: a, B: b} }
	down := func(tick uint64, a, b int32) trace.Event { return trace.Event{Tick: tick, A: a, B: b} }
	script := []trace.Event{
		up(1, 0, 1), up(1, 1, 2),
		down(2, 0, 1), up(2, 0, 1),
		up(3, 2, 3),
		down(5, 0, 1), down(5, 1, 2), up(5, 0, 1), up(5, 1, 2),
		down(7, 1, 2), down(7, 2, 3), up(7, 1, 2), up(7, 2, 3),
		down(9, 0, 1), up(9, 0, 2),
		down(14, 1, 2), down(14, 2, 3), up(14, 0, 3), up(14, 1, 3),
		down(30, 0, 2), down(30, 0, 3), down(30, 1, 3),
	}
	routers := make([]Router, 4)
	for i := range routers {
		routers[i] = &replicator{}
	}
	w, runner := scriptedWorld(routers, script)
	w.CreateMessage(0, 0, 3, 3000, 1e6)
	w.CreateMessage(0, 2, 0, 2500, 1e6)
	w.CreateMessage(0, 1, 3, 1500, 1e6)
	w.CreateMessage(0, 3, 1, 4000, 1e6)
	runner.Run(40)
	got := w.Metrics.Summary()
	want := metrics.Summary{Generated: 4, Delivered: 4, Relays: 20, Aborts: 7, Contacts: 11,
		DeliveryRatio: 1, AvgLatency: 13.875, MedianLatency: 13, Goodput: 0.2, OverheadRatio: 4, AvgHops: 1.5}
	if got != want {
		t.Fatalf("summary = %+v\nwant      %+v", got, want)
	}
	if dump := w.DumpState(); !strings.HasPrefix(dump, "t=40.0 nodes=4 links=0\n") {
		t.Fatalf("DumpState = %q, want no links left", dump)
	}
}
