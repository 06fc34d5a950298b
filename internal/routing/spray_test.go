package routing

import (
	"testing"

	"repro/internal/network"
)

func TestSprayAndWaitBinarySplit(t *testing.T) {
	h := newHarness(t, 4, func(int) network.Router { return NewSprayAndWait(8) })
	m := h.send(0, 3, 1e6)
	if h.replicas(0, m) != 8 {
		t.Fatalf("initial quota = %d", h.replicas(0, m))
	}
	h.meet(0, 1, 3)
	if h.replicas(0, m) != 4 || h.replicas(1, m) != 4 {
		t.Fatalf("after split: %d / %d, want 4 / 4", h.replicas(0, m), h.replicas(1, m))
	}
	h.meet(1, 2, 3)
	if h.replicas(1, m) != 2 || h.replicas(2, m) != 2 {
		t.Fatalf("second split: %d / %d, want 2 / 2", h.replicas(1, m), h.replicas(2, m))
	}
}

func TestSprayAndWaitWaitPhase(t *testing.T) {
	h := newHarness(t, 3, func(int) network.Router { return NewSprayAndWait(1) })
	m := h.send(0, 2, 1e6)
	h.meet(0, 1, 3)
	if h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("wait phase forwarded to a non-destination")
	}
	h.meet(0, 2, 3)
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("wait phase failed to deliver directly")
	}
}

func TestSprayQuotaConserved(t *testing.T) {
	h := newHarness(t, 5, func(int) network.Router { return NewSprayAndWait(10) })
	m := h.send(0, 4, 1e6)
	h.meet(0, 1, 3)
	h.meet(1, 2, 3)
	h.meet(0, 3, 3)
	total := 0
	for i := 0; i < 4; i++ {
		total += h.replicas(i, m)
	}
	if total != 10 {
		t.Fatalf("replica total = %d, want 10 (conservation)", total)
	}
}

func TestSprayAndFocusSpraysLikeWait(t *testing.T) {
	h := newHarness(t, 3, func(int) network.Router { return NewSprayAndFocus(8) })
	m := h.send(0, 2, 1e6)
	h.meet(0, 1, 3)
	if h.replicas(0, m) != 4 || h.replicas(1, m) != 4 {
		t.Fatalf("spray phase split: %d / %d", h.replicas(0, m), h.replicas(1, m))
	}
}

func TestSprayAndFocusForwardsToFresherNode(t *testing.T) {
	h := newHarness(t, 4, func(int) network.Router { return NewSprayAndFocus(1) })
	// Node 1 meets the destination (3), so its last-seen timer for 3 is
	// fresh. Node 0 has never seen 3.
	h.meet(1, 3, 3)
	m := h.send(0, 3, 1e6)
	h.meet(0, 1, 3)
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("focus did not forward to the node that saw the destination")
	}
	if h.w.Node(0).HasCopy(m.ID) {
		t.Fatal("focus forward must relinquish the sender copy")
	}
}

func TestSprayAndFocusHoldsAgainstStaleNode(t *testing.T) {
	h := newHarness(t, 4, func(int) network.Router { return NewSprayAndFocus(1) })
	// Node 0 itself saw the destination recently; node 1 never did.
	h.meet(0, 3, 3)
	m := h.send(0, 3, 1e6)
	h.meet(0, 1, 3)
	if h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("focus forwarded away from the fresher holder")
	}
	_ = m
}

func TestSprayAndFocusTransitivityPenalty(t *testing.T) {
	// Node 0 saw the destination directly (staler); node 2 only knows of
	// it transitively via node 1. With a huge penalty the transitive
	// knowledge is discounted below 0's direct timer and the copy stays;
	// with no penalty it moves.
	run := func(penalty float64) bool {
		h := newHarness(t, 4, func(int) network.Router {
			r := NewSprayAndFocus(1)
			r.TransitivityPenalty = penalty
			return r
		})
		h.meet(0, 3, 3) // 0's direct (stale) sighting
		h.meet(1, 3, 3) // 1 sees 3 later
		h.meet(1, 2, 3) // 2 adopts transitively
		m := h.send(0, 3, 1e6)
		h.meet(0, 2, 3)
		return h.w.Node(2).HasCopy(m.ID)
	}
	if run(1e9) {
		t.Error("huge penalty: copy moved on transitive knowledge")
	}
	// A small penalty keeps transitive knowledge usable while preventing
	// the zero-penalty degenerate case where the contact-time merge
	// equalises both timers and focus can never fire.
	if !run(2) {
		t.Error("small penalty: copy failed to follow fresher knowledge")
	}
}
