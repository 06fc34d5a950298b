package network

import (
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/msg"
	"repro/internal/sim"
)

// scriptMover returns positions from a time-indexed function.
type scriptMover struct {
	t  float64
	at func(t float64) geo.Point
}

func (m *scriptMover) Pos() geo.Point { return m.at(m.t) }
func (m *scriptMover) Step(dt float64) geo.Point {
	m.t += dt
	return m.at(m.t)
}

// probe is a minimal router recording engine callbacks; its NextTransfer
// serves plans from a queue.
type probe struct {
	self *Node
	w    *World

	ups, downs []int
	received   []int
	created    []int
	sent       []int
	queue      []*Plan
	quota      int
}

func (p *probe) Init(self *Node, w *World) { p.self = self; p.w = w }
func (p *probe) InitialReplicas(*msg.Message) int {
	if p.quota > 0 {
		return p.quota
	}
	return 1
}
func (p *probe) ContactUp(_ float64, peer *Node)   { p.ups = append(p.ups, peer.ID) }
func (p *probe) ContactDown(_ float64, peer *Node) { p.downs = append(p.downs, peer.ID) }
func (p *probe) Created(_ float64, c *msg.Copy)    { p.created = append(p.created, c.M.ID) }
func (p *probe) Received(_ float64, c *msg.Copy, _ *Node) {
	p.received = append(p.received, c.M.ID)
}
func (p *probe) Sent(_ float64, plan *Plan, _ *Node, _ bool) {
	p.sent = append(p.sent, plan.Msg.ID)
}
func (p *probe) NextTransfer(_ float64, peer *Node) *Plan {
	for len(p.queue) > 0 {
		plan := p.queue[0]
		p.queue = p.queue[1:]
		c := p.self.Copy(plan.Msg.ID)
		if c == nil || peer.HasCopy(plan.Msg.ID) {
			continue
		}
		return plan
	}
	return nil
}

// testWorld builds a world of probes at fixed or scripted positions.
// Range 10 m, 1000 B/s bandwidth (1 s per kilobyte), tick 1 s.
func testWorld(t *testing.T, movers []*scriptMover) (*World, *sim.Runner, []*probe) {
	t.Helper()
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	probes := make([]*probe, len(movers))
	for i, mv := range movers {
		probes[i] = &probe{}
		w.AddNode(mv, buffer.New(0), probes[i])
	}
	w.Start()
	return w, runner, probes
}

func fixed(x, y float64) *scriptMover {
	return &scriptMover{at: func(float64) geo.Point { return geo.Point{X: x, Y: y} }}
}

func TestContactDetection(t *testing.T) {
	// Node 1 approaches node 0, stays, then leaves.
	approach := &scriptMover{at: func(tt float64) geo.Point {
		switch {
		case tt < 5:
			return geo.Point{X: 100, Y: 0}
		case tt < 10:
			return geo.Point{X: 5, Y: 0}
		default:
			return geo.Point{X: 100, Y: 0}
		}
	}}
	_, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), approach})
	runner.Run(20)
	if len(probes[0].ups) != 1 || probes[0].ups[0] != 1 {
		t.Fatalf("node 0 ups = %v", probes[0].ups)
	}
	if len(probes[1].ups) != 1 || probes[1].ups[0] != 0 {
		t.Fatalf("node 1 ups = %v", probes[1].ups)
	}
	if len(probes[0].downs) != 1 || len(probes[1].downs) != 1 {
		t.Fatalf("downs = %v / %v", probes[0].downs, probes[1].downs)
	}
}

func TestNoContactBeyondRange(t *testing.T) {
	_, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), fixed(10.5, 0)})
	runner.Run(10)
	if len(probes[0].ups) != 0 {
		t.Fatalf("unexpected contact: %v", probes[0].ups)
	}
}

func TestContactExactlyAtRange(t *testing.T) {
	_, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), fixed(10, 0)})
	runner.Run(3)
	if len(probes[0].ups) != 1 {
		t.Fatal("contact at exactly the range boundary should count")
	}
}

func TestTransferDeliveryAndTiming(t *testing.T) {
	w, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), fixed(5, 0)})
	m := w.CreateMessage(0, 0, 1, 2000, 1e6) // 2 s at 1000 B/s
	if m == nil {
		t.Fatal("message refused")
	}
	if len(probes[0].created) != 1 {
		t.Fatal("Created not called")
	}
	probes[0].queue = append(probes[0].queue, Forward(w.Node(0).Copy(m.ID)))
	runner.Run(10)
	if !w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("message not delivered")
	}
	s := w.Metrics.Summary()
	if s.Relays != 1 || s.Delivered != 1 {
		t.Fatalf("relays=%d delivered=%d", s.Relays, s.Delivered)
	}
	// Delivery latency: contact at first tick (t=1), transfer 2 s -> ~3 s.
	if s.AvgLatency < 2 || s.AvgLatency > 4 {
		t.Errorf("latency = %g, want ~3", s.AvgLatency)
	}
	// Destination never buffers its own deliveries.
	if w.Node(1).Buf.Len() != 0 {
		t.Error("destination buffered a delivered message")
	}
	// The sender's copy is removed after delivering to the destination.
	if w.Node(0).HasCopy(m.ID) {
		t.Error("sender kept its copy after delivery")
	}
	if !w.Node(0).KnowsDelivered(m.ID) || !w.Node(1).KnowsDelivered(m.ID) {
		t.Error("delivery knowledge not recorded")
	}
}

func TestRelayToIntermediate(t *testing.T) {
	w, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), fixed(5, 0)})
	m := w.CreateMessage(0, 0, 3, 1000, 1e6) // destination not present (node id 3 invalid dest is fine: never met)
	_ = m
	_ = probes
	runner.Run(1) // contact starts; nothing queued, no transfer
	if w.Metrics.Summary().Relays != 0 {
		t.Fatal("transfer happened with empty queue")
	}
}

func TestQuotaSplitSemantics(t *testing.T) {
	w, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), fixed(5, 0), fixed(100, 100)})
	probes[0].quota = 10
	m := w.CreateMessage(0, 0, 2, 1000, 1e6) // destined to the far node
	c := w.Node(0).Copy(m.ID)
	if c.Replicas != 10 {
		t.Fatalf("initial quota = %d", c.Replicas)
	}
	probes[0].queue = append(probes[0].queue, Split(c, 4))
	runner.Run(5)
	if got := w.Node(0).Copy(m.ID).Replicas; got != 6 {
		t.Errorf("sender quota = %d, want 6", got)
	}
	rc := w.Node(1).Copy(m.ID)
	if rc == nil || rc.Replicas != 4 {
		t.Fatalf("receiver copy = %+v, want 4 replicas", rc)
	}
	if rc.Hops != 1 {
		t.Errorf("receiver hops = %d, want 1", rc.Hops)
	}
	if len(probes[1].received) != 1 {
		t.Error("Received not called")
	}
	if len(probes[0].sent) != 1 {
		t.Error("Sent not called")
	}
}

func TestForwardRelinquishes(t *testing.T) {
	w, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), fixed(5, 0), fixed(100, 100)})
	m := w.CreateMessage(0, 0, 2, 1000, 1e6)
	probes[0].queue = append(probes[0].queue, Forward(w.Node(0).Copy(m.ID)))
	runner.Run(5)
	if w.Node(0).HasCopy(m.ID) {
		t.Error("forward left a copy at the sender")
	}
	if !w.Node(1).HasCopy(m.ID) {
		t.Error("forward did not reach the peer")
	}
}

func TestReplicateKeepsQuota(t *testing.T) {
	w, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), fixed(5, 0), fixed(100, 100)})
	probes[0].quota = 7
	m := w.CreateMessage(0, 0, 2, 1000, 1e6)
	probes[0].queue = append(probes[0].queue, Replicate(w.Node(0).Copy(m.ID)))
	runner.Run(5)
	if got := w.Node(0).Copy(m.ID).Replicas; got != 7 {
		t.Errorf("sender quota after replicate = %d, want 7", got)
	}
	if got := w.Node(1).Copy(m.ID).Replicas; got != 1 {
		t.Errorf("receiver quota = %d, want 1", got)
	}
}

func TestAbortOnContactLoss(t *testing.T) {
	// Node 1 leaves at t=3; a 5-second transfer starting around t=1 cannot
	// complete.
	leave := &scriptMover{at: func(tt float64) geo.Point {
		if tt < 3 {
			return geo.Point{X: 5, Y: 0}
		}
		return geo.Point{X: 500, Y: 0}
	}}
	w, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), leave})
	m := w.CreateMessage(0, 0, 1, 5000, 1e6)
	probes[0].queue = append(probes[0].queue, Forward(w.Node(0).Copy(m.ID)))
	runner.Run(10)
	s := w.Metrics.Summary()
	if s.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", s.Aborts)
	}
	if s.Relays != 0 || s.Delivered != 0 {
		t.Errorf("relays=%d delivered=%d after abort", s.Relays, s.Delivered)
	}
	if !w.Node(0).HasCopy(m.ID) {
		t.Error("aborted forward lost the sender copy")
	}
}

func TestExpirySweep(t *testing.T) {
	w, runner, _ := testWorld(t, []*scriptMover{fixed(0, 0), fixed(1000, 0)})
	w.CreateMessage(0, 0, 1, 1000, 5) // expires at t=5
	runner.Run(30)                    // sweep runs every 10 ticks
	if w.Node(0).Buf.Len() != 0 {
		t.Fatal("expired message not purged")
	}
	if w.Metrics.Summary().Expired != 1 {
		t.Errorf("expired = %d", w.Metrics.Summary().Expired)
	}
}

func TestLateDeliveryNotCounted(t *testing.T) {
	w, runner, probes := testWorld(t, []*scriptMover{fixed(0, 0), fixed(5, 0)})
	m := w.CreateMessage(0, 0, 1, 8000, 3) // 8 s transfer, 3 s TTL
	probes[0].queue = append(probes[0].queue, Forward(w.Node(0).Copy(m.ID)))
	runner.Run(15)
	s := w.Metrics.Summary()
	if s.Delivered != 0 {
		t.Error("expired arrival counted as delivery")
	}
	if s.Relays != 1 {
		t.Errorf("relays = %d, want 1 (bytes were spent)", s.Relays)
	}
}

func TestCreateMessageSelfLoopPanics(t *testing.T) {
	w, _, _ := testWorld(t, []*scriptMover{fixed(0, 0), fixed(100, 0)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.CreateMessage(0, 1, 1, 10, 10)
}

func TestGridPairsMatchBruteForce(t *testing.T) {
	movers := []*scriptMover{
		fixed(0, 0), fixed(3, 4), fixed(9.9, 0), fixed(20, 20),
		fixed(20, 29), fixed(25, 25), fixed(-5, -5), fixed(0, 10),
	}
	w, runner, _ := testWorld(t, movers)
	runner.Run(1)
	want := map[[2]int32]bool{}
	nodes := w.Nodes()
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if nodes[i].Pos().Dist(nodes[j].Pos()) <= 10 {
				want[[2]int32{int32(i), int32(j)}] = true
			}
		}
	}
	got := map[[2]int32]bool{}
	for _, l := range w.linkList {
		got[[2]int32{int32(l.a.ID), int32(l.b.ID)}] = true
	}
	if len(got) != len(want) {
		t.Fatalf("links = %v, want %d pairs", got, len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing pair %v", p)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Summary2 {
		movers := []*scriptMover{fixed(0, 0), fixed(5, 0), fixed(8, 3)}
		w, runner, probes := testWorld(t, movers)
		m1 := w.CreateMessage(0, 0, 2, 1000, 1e6)
		m2 := w.CreateMessage(0, 1, 2, 1000, 1e6)
		probes[0].queue = append(probes[0].queue, Forward(w.Node(0).Copy(m1.ID)))
		probes[1].queue = append(probes[1].queue, Forward(w.Node(1).Copy(m2.ID)))
		runner.Run(10)
		s := w.Metrics.Summary()
		return Summary2{s.Delivered, s.Relays}
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

// Summary2 is a tiny comparable slice of the run outcome.
type Summary2 struct{ Delivered, Relays int }

func TestInContactAndContacts(t *testing.T) {
	w, runner, _ := testWorld(t, []*scriptMover{fixed(0, 0), fixed(5, 0), fixed(0, 5)})
	runner.Run(2)
	n0 := w.Node(0)
	if !n0.InContactWith(1) || !n0.InContactWith(2) {
		t.Fatalf("contacts = %v", n0.Contacts())
	}
	if len(n0.Contacts()) != 2 {
		t.Fatalf("contacts = %v", n0.Contacts())
	}
	if math.IsNaN(w.Now()) {
		t.Fatal("impossible")
	}
}
