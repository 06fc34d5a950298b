package routing

import (
	"testing"
	"unsafe"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/network"
	"repro/internal/xrand"
)

// meetingOf returns the meeting layer of node i's EER or CR router.
func meetingOf(h *harness, i int) *meeting {
	switch r := h.w.Node(i).Router.(type) {
	case *EER:
		return &r.meeting
	case *CR:
		return &r.meeting
	}
	h.t.Fatalf("node %d runs %T, not a meeting-layer router", i, h.w.Node(i).Router)
	return nil
}

// TestRecycledContactDecidesAsFresh: a contact taken from the freelist
// decides exactly as a new one opened at the same meeting time. Two EER
// worlds and two CR worlds warm up through hundreds of contacts, so
// recycled contacts carry a snapshot, MEMD delays and decisions from
// earlier lives. While each contact is up, every decision both sides made
// on their pooled contacts is recomputed on new contacts at the same t0.
func TestRecycledContactDecidesAsFresh(t *testing.T) {
	const n = 12
	reg := community.New([]int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
	eerCfg := DefaultEERConfig(10)
	eerCfg.ForwardHysteresis = 30
	cases := []struct {
		name    string
		factory func() network.Router
		seed    int64
	}{
		{"EER", EERFactory(DefaultEERConfig(10), n), 1},
		{"EER-hysteresis", EERFactory(eerCfg, n), 2},
		{"CR", CRFactory(DefaultCRConfig(10), reg), 3},
		{"CR-delta", CRFactory(CRConfig{Lambda: 4, Alpha: 0.28, Gossip: core.ExchangeDelta, MaxSparseRows: 3}, reg), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, n, func(int) network.Router { return tc.factory() })
			rng := xrand.New(tc.seed)
			msgs := make(map[int]*msg.Message)
			seen := make(map[*contact]bool)
			recycled, decisions := 0, 0
			for round := 0; round < 600; round++ {
				if round%2 == 0 {
					from, to := rng.Intn(n), rng.Intn(n)
					if from != to {
						m := h.send(from, to, rng.Uniform(300, 3000))
						msgs[m.ID] = m
					}
				}
				// Neighbours (mostly one community) meet more often than
				// random pairs, giving the estimators structure.
				a, b := rng.Intn(n), 0
				if rng.Intn(2) == 0 {
					b = (a + 1) % n
				} else {
					b = (a + 1 + rng.Intn(n-1)) % n
				}
				h.movers[a].moveTo(-500, -500)
				h.movers[b].moveTo(-495, -500)
				h.runner.Run(h.runner.Now() + 1)
				for _, side := range [][2]int{{a, b}, {b, a}} {
					m, pm := meetingOf(h, side[0]), meetingOf(h, side[1])
					st, peerSt := m.contacts[side[1]], pm.contacts[side[0]]
					if st == nil || peerSt == nil {
						t.Fatalf("round %d: contact %d-%d not open", round, side[0], side[1])
					}
					if seen[st] && len(st.decided) > 0 {
						recycled++
					}
					seen[st] = true
					for id, got := range st.decided {
						c := &msg.Copy{M: msgs[id]}
						want := m.rule.decide(&contact{t0: st.t0}, &contact{t0: peerSt.t0}, pm, c)
						if got != want {
							t.Fatalf("round %d: node %d deciding message %d for peer %d at t0=%g: pooled %+v, fresh %+v",
								round, side[0], id, side[1], st.t0, got, want)
						}
						decisions++
					}
				}
				h.scatter()
				h.runner.Run(h.runner.Now() + rng.Uniform(2, 60))
			}
			if recycled < 100 || decisions < 1000 {
				t.Fatalf("only %d recycled contacts with decisions and %d decisions checked", recycled, decisions)
			}
			t.Logf("%d decisions checked, %d on recycled contacts with decisions", decisions, recycled)
		})
	}
}

// TestDecisionSize: the decided maps hold decisions by value, one per
// message per contact side; the field order keeps a decision at 24 bytes.
func TestDecisionSize(t *testing.T) {
	if got := unsafe.Sizeof(decision{}); got != 24 {
		t.Fatalf("decision is %d bytes, want 24", got)
	}
}
