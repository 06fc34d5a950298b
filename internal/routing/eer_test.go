package routing

import (
	"testing"

	"repro/internal/network"
)

func eerHarness(t *testing.T, n, lambda int) *harness {
	f := EERFactory(DefaultEERConfig(lambda), n)
	return newHarness(t, n, func(int) network.Router { return f() })
}

func eerOf(h *harness, node int) *EER {
	return h.w.Node(node).Router.(*EER)
}

func TestEERDeliversDirect(t *testing.T) {
	h := eerHarness(t, 2, 10)
	m := h.send(0, 1, 1e6)
	h.meet(0, 1, 3)
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("EER failed direct delivery")
	}
}

func TestEERHistoryAndMISync(t *testing.T) {
	h := eerHarness(t, 3, 10)
	h.meet(0, 1, 3)
	h.meet(0, 1, 3)
	r0, r1 := eerOf(h, 0), eerOf(h, 1)
	if r0.History().IntervalCount(1) != 1 || r1.History().IntervalCount(0) != 1 {
		t.Fatalf("interval counts: %d / %d, want 1 / 1",
			r0.History().IntervalCount(1), r1.History().IntervalCount(0))
	}
	// After sync both MIs know both rows.
	if r0.MI().KnownRows() != 2 || r1.MI().KnownRows() != 2 {
		t.Fatalf("known rows: %d / %d", r0.MI().KnownRows(), r1.MI().KnownRows())
	}
	// Gossip: 1 carries 0's row to 2.
	h.meet(1, 2, 3)
	r2 := eerOf(h, 2)
	if r2.MI().RowUpdated(0) < 0 {
		t.Error("MI row for node 0 did not gossip to node 2 via node 1")
	}
}

// TestEERSplitProportionalToEEV: the peer with the busier contact history
// receives the larger share of the quota (Algorithm 1 line 10).
func TestEERSplitProportionalToEEV(t *testing.T) {
	h := eerHarness(t, 6, 10)
	// Node 1 meets nodes 3,4,5 regularly (high EEV); node 0 meets nobody
	// else. Short gaps keep the meetings inside any α·TTL horizon.
	for k := 0; k < 4; k++ {
		h.meet(1, 3, 1)
		h.meet(1, 4, 1)
		h.meet(1, 5, 1)
	}
	m := h.send(0, 2, 3600) // destination 2 is never met by anyone
	h.meet(0, 1, 3)
	// EEV_0 ≈ prob of meeting 1 only; EEV_1 sums three active peers, so
	// node 1 must hold strictly more replicas than node 0 keeps.
	r0, r1 := h.replicas(0, m), h.replicas(1, m)
	if r0+r1 != 10 {
		t.Fatalf("quota not conserved: %d + %d", r0, r1)
	}
	if r1 <= r0 {
		t.Errorf("split %d/%d: busier node should receive the larger share", r0, r1)
	}
}

// TestEERTTLAwareSplit is the paper's central claim: the EEV horizon is
// α·TTL_k, so the same pair of nodes splits a short-TTL message and a
// long-TTL message differently. Node 1 meets node 3 every ~200 s; right
// after the last meeting its EEV within α·60 ≈ 17 s is 0 (no recorded
// interval fits) but within α·3600 ≈ 1000 s it is ≈ 1. Node 0 has no
// history at all (EEV 0 always).
func TestEERTTLAwareSplit(t *testing.T) {
	shares := func(ttl float64) (int, int) {
		h := eerHarness(t, 4, 10)
		for k := 0; k < 4; k++ {
			h.meet(1, 3, 1)
			if k < 3 {
				h.runner.Run(h.runner.Now() + 195)
			}
		}
		m := h.send(0, 2, ttl)
		h.meet(0, 1, 3)
		return h.replicas(0, m), h.replicas(1, m)
	}
	// Long TTL: EEV_0 = 0, EEV_1 ≈ 1 — floor(10·1/1) = 10, a full handoff.
	if r0, r1 := shares(3600); r1 != 10 || r0 != 0 {
		t.Errorf("long-TTL split = %d/%d, want 0/10", r0, r1)
	}
	// Short TTL: both EEVs are 0 — the even-split convention gives 5/5.
	if r0, r1 := shares(60); r1 != 5 || r0 != 5 {
		t.Errorf("short-TTL split = %d/%d, want 5/5", r0, r1)
	}
}

// TestEERSingleCopyForwardsByMEMD: the last replica moves to the node with
// the smaller minimum expected meeting delay to the destination.
func TestEERSingleCopyForwardsByMEMD(t *testing.T) {
	h := eerHarness(t, 4, 1)
	// Node 1 meets destination 2 every ~10 s; node 0 never meets 2 but
	// meets 1. MEMD(0,2) = EMD(0,1)+I(1,2) > MEMD(1,2).
	for k := 0; k < 6; k++ {
		h.meet(1, 2, 1)
		h.runner.Run(h.runner.Now() + 4)
	}
	h.warmPair(0, 1, 3, 20)
	m := h.send(0, 2, 3600)
	h.meet(0, 1, 3)
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("single copy did not move toward the smaller MEMD")
	}
	if h.w.Node(0).HasCopy(m.ID) {
		t.Fatal("forward must relinquish the sender copy")
	}
}

// TestEERSingleCopyHoldsAgainstWorsePeer: the reverse situation must not
// move the copy.
func TestEERSingleCopyHoldsAgainstWorsePeer(t *testing.T) {
	h := eerHarness(t, 4, 1)
	for k := 0; k < 6; k++ {
		h.meet(0, 2, 1) // the HOLDER meets the destination often
		h.runner.Run(h.runner.Now() + 4)
	}
	h.warmPair(0, 3, 3, 20)
	m := h.send(0, 2, 3600)
	h.meet(0, 3, 3)
	if h.w.Node(3).HasCopy(m.ID) {
		t.Fatal("copy moved away from the better-positioned holder")
	}
	_ = m
}

func TestEERZeroEEVSplitsEvenly(t *testing.T) {
	// First-ever meeting: both EEVs are 0, so the convention splits the
	// quota evenly (floor(10/2) = 5).
	h := eerHarness(t, 3, 10)
	m := h.send(0, 2, 3600)
	h.meet(0, 1, 3)
	if r0, r1 := h.replicas(0, m), h.replicas(1, m); r0 != 5 || r1 != 5 {
		t.Errorf("zero-EEV split = %d/%d, want 5/5", r0, r1)
	}
}

func TestEERQuotaConservation(t *testing.T) {
	h := eerHarness(t, 5, 8)
	m := h.send(0, 4, 3600)
	h.meet(0, 1, 3)
	h.meet(1, 2, 3)
	h.meet(0, 3, 3)
	total := 0
	for i := 0; i < 4; i++ {
		total += h.replicas(i, m)
	}
	if total != 8 {
		t.Fatalf("replica total = %d, want 8", total)
	}
}

func TestEERFixedHorizonAblation(t *testing.T) {
	cfg := DefaultEERConfig(10)
	cfg.FixedHorizon = 1200
	f := EERFactory(cfg, 3)
	h := newHarness(t, 3, func(int) network.Router { return f() })
	m := h.send(0, 2, 3600)
	h.meet(0, 1, 3)
	// Sanity: the ablation still distributes.
	if h.replicas(0, m)+h.replicas(1, m) != 10 {
		t.Error("fixed-horizon EER broke quota conservation")
	}
}

func TestEERMeanIntervalMDAblation(t *testing.T) {
	cfg := DefaultEERConfig(1)
	cfg.MeanIntervalMD = true
	f := EERFactory(cfg, 4)
	h := newHarness(t, 4, func(int) network.Router { return f() })
	for k := 0; k < 6; k++ {
		h.meet(1, 2, 1)
		h.runner.Run(h.runner.Now() + 4)
	}
	h.warmPair(0, 1, 3, 20)
	m := h.send(0, 2, 3600)
	h.meet(0, 1, 3)
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("mean-interval-MD ablation failed to forward toward the destination")
	}
}
