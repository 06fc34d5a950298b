package routing

import (
	"testing"

	"repro/internal/network"
)

func TestDirectDeliversOnlyToDestination(t *testing.T) {
	h := newHarness(t, 3, func(int) network.Router { return NewDirect() })
	m := h.send(0, 2, 1e6)
	h.meet(0, 1, 3)
	if h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("Direct handed a copy to a non-destination")
	}
	h.meet(0, 2, 3)
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("Direct failed to deliver on destination contact")
	}
	if s := h.w.Metrics.Summary(); s.Relays != 1 {
		t.Errorf("relays = %d, want 1", s.Relays)
	}
}

func TestEpidemicFloods(t *testing.T) {
	h := newHarness(t, 4, func(int) network.Router { return NewEpidemic() })
	m := h.send(0, 3, 1e6)
	h.meet(0, 1, 3)
	h.meet(1, 2, 3)
	if !h.w.Node(1).HasCopy(m.ID) || !h.w.Node(2).HasCopy(m.ID) {
		t.Fatal("epidemic did not spread along contacts")
	}
	// Source keeps its copy.
	if !h.w.Node(0).HasCopy(m.ID) {
		t.Fatal("epidemic source lost its copy")
	}
	h.meet(2, 3, 3)
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("not delivered")
	}
}

func TestEpidemicNoDuplicateTransfers(t *testing.T) {
	h := newHarness(t, 2, func(int) network.Router { return NewEpidemic() })
	h.send(0, 1, 1e6)
	h.meet(0, 1, 5)
	// One relay only: the delivery. Re-meeting must not resend.
	h.meet(0, 1, 5)
	if s := h.w.Metrics.Summary(); s.Relays != 1 {
		t.Errorf("relays = %d, want 1", s.Relays)
	}
}

func TestFirstContactMovesSingleCopy(t *testing.T) {
	h := newHarness(t, 3, func(int) network.Router { return NewFirstContact() })
	m := h.send(0, 2, 1e6)
	h.meet(0, 1, 3)
	if h.w.Node(0).HasCopy(m.ID) {
		t.Fatal("FirstContact left a copy at the sender")
	}
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("FirstContact did not move the copy")
	}
	h.meet(1, 2, 3)
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("not delivered")
	}
}

func TestNoReturnGuardWithinContact(t *testing.T) {
	// FirstContact would bounce a message back and forth within one
	// contact without the guard; with it the copy moves exactly once.
	h := newHarness(t, 2, func(int) network.Router { return NewFirstContact() })
	m := h.send(0, 1, 1e6)
	_ = m
	h.meet(0, 1, 10)
	if s := h.w.Metrics.Summary(); s.Relays != 1 {
		t.Errorf("relays = %d, want exactly 1 (delivery)", s.Relays)
	}
}

func TestNoReturnGuardNonDestination(t *testing.T) {
	h := newHarness(t, 3, func(int) network.Router { return NewFirstContact() })
	m := h.send(0, 2, 1e6)
	h.gather([]int{0, 1}, 10)
	// During the long contact, 0 forwards to 1; 1 must not bounce it back
	// to 0 while the same contact persists.
	if s := h.w.Metrics.Summary(); s.Relays != 1 {
		t.Errorf("relays = %d, want 1", s.Relays)
	}
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Error("copy not at node 1")
	}
}
