package core

import (
	"math"
	"testing"
)

// chainWorld builds histories and synced MIs for a 3-node chain
// 0 -10s- 1 -20s- 2 where each listed pair meets with a fixed period.
func chainWorld(t *testing.T) (*History, *MeetingMatrix) {
	t.Helper()
	h0 := NewHistory(0, 3, 0)
	h1 := NewHistory(1, 3, 0)
	h2 := NewHistory(2, 3, 0)
	// Pair (0,1): period 10; pair (1,2): period 20; (0,2) never meet.
	for ts := 0.0; ts <= 100; ts += 10 {
		h0.RecordContact(1, ts)
		h1.RecordContact(0, ts)
	}
	for ts := 0.0; ts <= 100; ts += 20 {
		h1.RecordContact(2, ts)
		h2.RecordContact(1, ts)
	}
	mi := NewFullMeetingMatrix(3)
	mi.UpdateOwnRow(0, 100, h0)
	m1 := NewFullMeetingMatrix(3)
	m1.UpdateOwnRow(1, 100, h1)
	m2 := NewFullMeetingMatrix(3)
	m2.UpdateOwnRow(2, 100, h2)
	Sync(mi, m1)
	Sync(m1, m2)
	Sync(mi, m1)
	return h0, mi
}

// TestMEMDChain checks Theorem 3 on the chain: node 0 reaches node 2 only
// via node 1, so MEMD(0,2) = EMD(0,1) + I(1,2).
func TestMEMDChain(t *testing.T) {
	h0, mi := chainWorld(t)
	calc := NewMEMD(3)
	at := 105.0 // elapsed 5 on the (0,1) pair
	calc.Compute(0, at, h0, mi)

	emd01, ok := h0.EMD(1, at)
	if !ok {
		t.Fatal("EMD(0,1) unavailable")
	}
	want := emd01 + 20 // I(1,2) = 20
	if got := calc.Delay(2); math.Abs(got-want) > 1e-9 {
		t.Errorf("MEMD(0,2) = %g, want %g", got, want)
	}
	if got := calc.Delay(1); math.Abs(got-emd01) > 1e-9 {
		t.Errorf("MEMD(0,1) = %g, want %g (direct)", got, emd01)
	}
	if got := calc.Delay(0); got != 0 {
		t.Errorf("MEMD(0,0) = %g, want 0", got)
	}
}

// TestMEMDPrefersShortcut: a direct but slow pair loses to a fast two-hop
// path.
func TestMEMDPrefersShortcut(t *testing.T) {
	h0 := NewHistory(0, 3, 0)
	// 0 meets 2 directly every 1000 s.
	for ts := 0.0; ts <= 3000; ts += 1000 {
		h0.RecordContact(2, ts)
	}
	// 0 meets 1 every 10 s.
	for ts := 0.0; ts <= 3000; ts += 10 {
		h0.RecordContact(1, ts)
	}
	mi := NewFullMeetingMatrix(3)
	mi.UpdateOwnRow(0, 3000, h0)
	// Node 1 publishes a 10 s average to node 2.
	h1 := NewHistory(1, 3, 0)
	for ts := 0.0; ts <= 3000; ts += 10 {
		h1.RecordContact(2, ts)
	}
	m1 := NewFullMeetingMatrix(3)
	m1.UpdateOwnRow(1, 3000, h1)
	Sync(mi, m1)

	calc := NewMEMD(3)
	calc.Compute(0, 3000, h0, mi)
	// Via 1: EMD(0,1)=10 + I(1,2)=10 = 20 << direct EMD(0,2)=1000.
	if got := calc.Delay(2); got > 30 {
		t.Errorf("MEMD(0,2) = %g, want the two-hop shortcut (~20)", got)
	}
}

func TestMEMDUnreachable(t *testing.T) {
	h := NewHistory(0, 3, 0)
	mi := NewFullMeetingMatrix(3)
	calc := NewMEMD(3)
	calc.Compute(0, 0, h, mi)
	if got := calc.Delay(2); !math.IsInf(got, 1) {
		t.Errorf("MEMD to unknown node = %g, want +Inf", got)
	}
	if got := calc.Delay(99); !math.IsInf(got, 1) {
		t.Errorf("MEMD to uncovered node = %g, want +Inf", got)
	}
}

func TestMEMDDelayBeforeComputePanics(t *testing.T) {
	calc := NewMEMD(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	calc.Delay(1)
}

// TestMEMDCommunityScoped checks the CR usage: a matrix over a node
// subset.
func TestMEMDCommunityScoped(t *testing.T) {
	ids := []int{4, 6, 8}
	h := NewHistory(4, 10, 0)
	for ts := 0.0; ts <= 100; ts += 25 {
		h.RecordContact(6, ts)
	}
	mi := NewMeetingMatrix(ids)
	mi.UpdateOwnRow(4, 100, h)
	h6 := NewHistory(6, 10, 0)
	for ts := 0.0; ts <= 100; ts += 50 {
		h6.RecordContact(8, ts)
	}
	m6 := NewMeetingMatrix(ids)
	m6.UpdateOwnRow(6, 100, h6)
	Sync(mi, m6)

	calc := NewMEMD(3)
	calc.Compute(4, 110, h, mi)
	emd, _ := h.EMD(6, 110)
	want := emd + 50
	if got := calc.Delay(8); math.Abs(got-want) > 1e-9 {
		t.Errorf("scoped MEMD(4,8) = %g, want %g", got, want)
	}
}
