package routing

import (
	"testing"

	"repro/internal/community"
	"repro/internal/network"
)

// crHarness builds n nodes with the given registry.
func crHarness(t *testing.T, reg *community.Registry, lambda int) *harness {
	f := CRFactory(DefaultCRConfig(lambda), reg)
	return newHarness(t, reg.N(), func(int) network.Router { return f() })
}

func TestCRHandsAllToDestinationCommunity(t *testing.T) {
	// Communities {0,1} and {2,3}; message from 0 to 3. On meeting node 2
	// (destination community), ALL replicas are handed over (Algorithm 3
	// line 2).
	h := crHarness(t, registry2x2(), 10)
	m := h.send(0, 3, 3600)
	h.meet(0, 2, 3)
	if h.w.Node(0).HasCopy(m.ID) {
		t.Fatal("sender kept replicas after meeting the destination community")
	}
	if got := h.replicas(2, m); got != 10 {
		t.Fatalf("destination-community node got %d replicas, want 10", got)
	}
	// Intra-community phase then delivers.
	h.meet(2, 3, 3)
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("intra-community delivery failed")
	}
}

func TestCRInterCommunitySplitByENEC(t *testing.T) {
	// Communities: {0,1} (A), {2,3,4} (B), {5} (C, destination).
	reg := community.New([]int{0, 0, 1, 1, 1, 2})
	h := crHarness(t, reg, 10)
	// Node 1 frequently meets community B members (high ENEC); node 0
	// meets nobody else.
	for k := 0; k < 5; k++ {
		h.meet(1, 2, 1)
		h.meet(1, 3, 1)
	}
	m := h.send(0, 5, 3600)
	h.meet(0, 1, 3)
	r0, r1 := h.replicas(0, m), h.replicas(1, m)
	if r0+r1 != 10 {
		t.Fatalf("quota not conserved: %d + %d", r0, r1)
	}
	if r1 <= r0 {
		t.Errorf("ENEC split %d/%d: community-hopping node should get more", r0, r1)
	}
}

func TestCRInterCommunitySingleCopyByPic(t *testing.T) {
	// Single replica moves to the encounter with the higher probability of
	// meeting the destination community (Algorithm 3 line 10).
	reg := community.New([]int{0, 0, 1, 1, 2})
	h := crHarness(t, reg, 1)
	// Node 1 meets community-1 members often; node 0 never does.
	for k := 0; k < 5; k++ {
		h.meet(1, 2, 1)
		h.runner.Run(h.runner.Now() + 4)
	}
	m := h.send(0, 3, 3600) // dest 3 in community 1; holder 0 in community 0
	h.meet(0, 1, 3)
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("single copy did not move toward the higher P_ic")
	}
}

func TestCRInterCommunitySingleCopyHolds(t *testing.T) {
	reg := community.New([]int{0, 0, 1, 1, 2})
	h := crHarness(t, reg, 1)
	// The HOLDER has the destination-community contacts.
	for k := 0; k < 5; k++ {
		h.meet(0, 2, 1)
		h.runner.Run(h.runner.Now() + 4)
	}
	m := h.send(0, 3, 3600)
	h.meet(0, 1, 3)
	if h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("copy moved away from the better-connected holder")
	}
	_ = m
}

func TestCRIntraCommunityOnlyWithinCommunity(t *testing.T) {
	// Holder in the destination community never gives the message to an
	// outsider (Algorithm 4 line 1).
	h := crHarness(t, registry2x2(), 10)
	m := h.send(0, 1, 3600) // source and destination share community 0
	h.meet(0, 2, 3)         // node 2 is in the other community
	if h.w.Node(2).HasCopy(m.ID) {
		t.Fatal("intra-community message leaked outside the community")
	}
	h.meet(0, 1, 3)
	if !h.w.Node(m.To).DeliveredHere(m.ID) {
		t.Fatal("delivery inside the community failed")
	}
}

func TestCRIntraCommunitySplitByIntraEEV(t *testing.T) {
	// Community 0 = {0,1,2,3}, destination 3. Node 1 meets community
	// members often (high intra EEV'), node 0 does not.
	reg := community.New([]int{0, 0, 0, 0, 1})
	h := crHarness(t, reg, 10)
	for k := 0; k < 5; k++ {
		h.meet(1, 2, 1)
	}
	m := h.send(0, 3, 3600)
	h.meet(0, 1, 3)
	r0, r1 := h.replicas(0, m), h.replicas(1, m)
	if r0+r1 != 10 {
		t.Fatalf("quota not conserved: %d + %d", r0, r1)
	}
	if r1 <= r0 {
		t.Errorf("intra-EEV split %d/%d", r0, r1)
	}
}

func TestCRIntraCommunityMEMD(t *testing.T) {
	// Community 0 = {0,1,2}; single replica at 0 destined to 2; node 1
	// meets 2 regularly, so intra-MEMD'(1,2) < intra-MEMD'(0,2).
	reg := community.New([]int{0, 0, 0, 1})
	h := crHarness(t, reg, 1)
	for k := 0; k < 6; k++ {
		h.meet(1, 2, 1)
		h.runner.Run(h.runner.Now() + 4)
	}
	h.warmPair(0, 1, 3, 20)
	m := h.send(0, 2, 3600)
	h.meet(0, 1, 3)
	if !h.w.Node(1).HasCopy(m.ID) {
		t.Fatal("intra-community single copy did not follow MEMD'")
	}
}

func TestCRIntraMIScopedToCommunity(t *testing.T) {
	reg := registry2x2()
	h := crHarness(t, reg, 10)
	h.meet(0, 1, 3) // same community: intra MI update + sync
	h.meet(0, 2, 3) // cross community: history only
	r0 := h.w.Node(0).Router.(*CR)
	if r0.IntraMI().Size() != 2 {
		t.Fatalf("intra MI size = %d, want 2", r0.IntraMI().Size())
	}
	if !r0.IntraMI().Covers(1) || r0.IntraMI().Covers(2) {
		t.Error("intra MI covers the wrong nodes")
	}
	// The cross-community meeting still lands in the history.
	if !r0.History().Met(2) {
		t.Error("cross-community contact missing from history")
	}
}

func TestCRQuotaConservationAcrossPhases(t *testing.T) {
	reg := community.New([]int{0, 0, 1, 1, 2, 2})
	h := crHarness(t, reg, 12)
	m := h.send(0, 5, 3600)
	h.meet(0, 1, 3) // intra split? no: dest community is 2, inter phase
	h.meet(1, 2, 3) // inter: ENEC split or hand-all (2 not in dest comm)
	h.meet(2, 3, 3)
	total := 0
	for i := 0; i < 5; i++ {
		total += h.replicas(i, m)
	}
	if total != 12 {
		t.Fatalf("replica total = %d, want 12", total)
	}
}
