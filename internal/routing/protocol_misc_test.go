package routing

import (
	"testing"

	"repro/internal/network"
)

func TestProphetDirectAndTransitive(t *testing.T) {
	h := newHarness(t, 4, func(int) network.Router { return NewProphet() })
	h.meet(0, 1, 3)
	r0 := h.w.Node(0).Router.(*Prophet)
	now := h.runner.Now()
	if p := r0.P(now, 1); p < 0.5 {
		t.Fatalf("P(0,1) after meeting = %g, want >= PInit-ish", p)
	}
	// Transitive: 1 meets 2, then 0 re-meets 1 and picks up P(0,2) > 0.
	h.meet(1, 2, 3)
	h.meet(0, 1, 3)
	if p := r0.P(h.runner.Now(), 2); p <= 0 {
		t.Fatalf("transitive P(0,2) = %g, want > 0", p)
	}
}

func TestProphetAging(t *testing.T) {
	h := newHarness(t, 2, func(int) network.Router { return NewProphet() })
	h.meet(0, 1, 3)
	r0 := h.w.Node(0).Router.(*Prophet)
	early := r0.P(h.runner.Now(), 1)
	h.runner.Run(h.runner.Now() + 600)
	late := r0.P(h.runner.Now(), 1)
	if late >= early {
		t.Errorf("P did not age: %g -> %g", early, late)
	}
}

func TestProphetReplicatesTowardHigherP(t *testing.T) {
	h := newHarness(t, 4, func(int) network.Router { return NewProphet() })
	h.meet(1, 3, 3) // node 1 knows the destination
	m := h.send(0, 3, 1e6)
	h.meet(0, 1, 3)
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("PRoPHET did not replicate toward higher P")
	}
	if !h.w.Node(0).HasCopy(m.ID) {
		t.Fatal("PRoPHET replication must keep the sender copy")
	}
	// Reverse direction: a peer with no knowledge gets nothing.
	m2 := h.send(1, 3, 1e6)
	h.meet(1, 2, 3)
	if h.w.Node(2).HasCopy(m2.ID) {
		t.Fatal("PRoPHET replicated toward a lower P")
	}
}

func TestEBREncounterValueUpdates(t *testing.T) {
	h := newHarness(t, 3, func(int) network.Router { return NewEBR(10) })
	r0 := h.w.Node(0).Router.(*EBR)
	if r0.EV() != 0 {
		t.Fatal("initial EV not zero")
	}
	h.meet(0, 1, 3)
	h.meet(0, 2, 3)
	// Let a window interval (30 s) elapse so CWC folds into EV.
	h.runner.Run(h.runner.Now() + 35)
	if r0.EV() <= 0 {
		t.Fatalf("EV after two encounters = %g, want > 0", r0.EV())
	}
}

func TestEBRSplitsTowardHigherEV(t *testing.T) {
	h := newHarness(t, 6, func(int) network.Router { return NewEBR(10) })
	// Node 1 racks up encounters; node 0 stays idle.
	for k := 0; k < 4; k++ {
		h.meet(1, 3, 1)
		h.meet(1, 4, 1)
		h.meet(1, 5, 1)
	}
	h.runner.Run(h.runner.Now() + 35) // fold the window
	m := h.send(0, 2, 1e6)
	h.meet(0, 1, 3)
	r0, r1 := h.replicas(0, m), h.replicas(1, m)
	if r0+r1 != 10 {
		t.Fatalf("quota not conserved: %d + %d", r0, r1)
	}
	if r1 <= r0 {
		t.Errorf("EBR split %d/%d, want more to the higher-EV node", r0, r1)
	}
}

func TestEBRWaitPhaseHolds(t *testing.T) {
	h := newHarness(t, 3, func(int) network.Router { return NewEBR(1) })
	m := h.send(0, 2, 1e6)
	h.meet(0, 1, 5)
	if h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("EBR forwarded its last replica to a non-destination")
	}
	h.meet(0, 2, 3)
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("EBR failed direct delivery")
	}
}

func TestEBRNeverRelinquishesLastReplicaInSpray(t *testing.T) {
	h := newHarness(t, 3, func(int) network.Router { return NewEBR(2) })
	// Peer 1 has a huge EV; holder 0 has zero. floor(2·EV1/(EV0+EV1)) = 2
	// would hand everything over; EBR caps at Mk-1.
	for k := 0; k < 6; k++ {
		h.meet(1, 2, 1)
	}
	h.runner.Run(h.runner.Now() + 35)
	m := h.send(0, 2, 1e6) // dest 2; but meeting with 1 first
	h.meet(0, 1, 3)
	if h.replicas(0, m) < 1 {
		t.Fatal("EBR sprayed away its last replica")
	}
	if h.replicas(0, m)+h.replicas(1, m) != 2 {
		t.Fatal("quota not conserved")
	}
}

func maxPropHarness(t *testing.T, n int) *harness {
	f := MaxPropFactory(n, 0, 0)
	return newHarness(t, n, func(int) network.Router { return f() })
}

func TestMaxPropMeetingProbabilities(t *testing.T) {
	h := maxPropHarness(t, 4)
	// Increment-then-renormalise (Burgess et al.): after (0,1), (0,2),
	// (0,1) the vector is [0.75, 0.25].
	h.meet(0, 1, 3)
	h.meet(0, 2, 3)
	h.meet(0, 1, 3)
	r0 := h.w.Node(0).Router.(*MaxProp)
	p1, p2 := r0.Prob(1), r0.Prob(2)
	if p1 <= p2 {
		t.Errorf("P(1)=%g should exceed P(2)=%g after more meetings", p1, p2)
	}
	sum := 0.0
	for v := 0; v < 4; v++ {
		sum += r0.Prob(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("probabilities sum to %g, want 1", sum)
	}
}

func TestMaxPropReplicates(t *testing.T) {
	h := maxPropHarness(t, 3)
	m := h.send(0, 2, 1e6)
	h.meet(0, 1, 3)
	if !h.w.Node(1).HasCopy(m.ID) || !h.w.Node(0).HasCopy(m.ID) {
		t.Fatal("MaxProp should replicate like epidemic")
	}
}

func TestMaxPropAckPurge(t *testing.T) {
	h := maxPropHarness(t, 4)
	m := h.send(0, 2, 1e6)
	h.meet(0, 1, 3) // 1 holds a copy now
	h.meet(0, 2, 3) // 0 delivers; 0 and 2 learn the ack
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("not delivered")
	}
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("setup: node 1 should still hold a copy")
	}
	h.meet(1, 2, 3) // ack gossips from 2 to 1; 1 purges
	if h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("MaxProp ack did not purge the dead copy")
	}
	if s := h.w.Metrics.Summary(); s.Relays != 2 {
		t.Errorf("relays = %d, want 2 (copy + delivery, no dead forwarding)", s.Relays)
	}
}

func TestMaxPropCostFavorsKnownPath(t *testing.T) {
	h := maxPropHarness(t, 4)
	h.meet(0, 1, 3)
	h.meet(1, 2, 3)
	h.meet(0, 1, 3) // 0 learns 1's vector
	r0 := h.w.Node(0).Router.(*MaxProp)
	if c := r0.Cost(2); c >= 1e17 {
		t.Errorf("cost to reachable node = %g, want finite", c)
	}
	if c := r0.Cost(3); c < 1e17 {
		t.Errorf("cost to unknown node = %g, want +Inf", c)
	}
}

func TestQuotaShare(t *testing.T) {
	cases := []struct {
		total        int
		wSelf, wPeer float64
		want         int
	}{
		{10, 1, 1, 5},
		{10, 0, 0, 5},  // even-split convention
		{10, 3, 1, 2},  // floor(10/4)
		{10, 0, 5, 10}, // all to peer
		{10, 5, 0, 0},
		{1, 1, 1, 0}, // floor(0.5)
		{0, 1, 1, 0},
	}
	for _, c := range cases {
		if got := QuotaShare(c.total, c.wSelf, c.wPeer); got != c.want {
			t.Errorf("QuotaShare(%d, %g, %g) = %d, want %d", c.total, c.wSelf, c.wPeer, got, c.want)
		}
	}
}

func TestSplitPlanShapes(t *testing.T) {
	h := newHarness(t, 2, func(int) network.Router { return NewDirect() })
	m := h.send(0, 1, 1e6)
	c := h.w.Node(0).Copy(m.ID)
	c.Replicas = 10
	if p := SplitPlan(c, 0); p != nil {
		t.Error("zero share should be nil")
	}
	if p := SplitPlan(c, 10); p.KeepAfter != 0 || p.Give != 10 {
		t.Errorf("full share plan = %+v", p)
	}
	if p := SplitPlan(c, 4); p.Give != 4 || p.KeepAfter != 6 {
		t.Errorf("split plan = %+v", p)
	}
}
