package routing

import (
	"fmt"
	"math"
	"strings"
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

// fullDelays runs the full-run oracle of a contact side's MEMD: a
// complete Theorem-3 (or A2) Dijkstra over the side's inputs as they are
// now, returned as a delay per reached node.
func fullDelays(m *meeting, st *contact) map[int]float64 {
	calc := core.NewMEMD(m.World.N())
	if m.storeOnly {
		calc.ComputeStoreOnly(m.Self.ID, m.mi)
	} else {
		calc.Compute(m.Self.ID, st.t0, m.hist, m.mi)
	}
	out := make(map[int]float64)
	for _, r := range calc.Reached() {
		out[int(r.ID)] = r.D
	}
	return out
}

// delayIn reads a destination's delay from an oracle: +Inf when unreached.
func delayIn(oracle map[int]float64, dst int) float64 {
	if d, ok := oracle[dst]; ok {
		return d
	}
	return math.Inf(1)
}

// TestDecisionDrivenMEMDParity: every single-replica decision of the
// decision-driven MEMD — searches that freeze their inputs at a contact
// side's first decision, settle only what each decision needs and resume
// at the next — equals the full-run oracle's myD > peerD + h over the
// inputs frozen at first use. The worlds (EER, A3's hysteresis, A2's
// store-only MD and CR) recycle hundreds of contacts, hold messages for a
// node nobody meets (an unreachable destination, so often an unreachable
// peer too), and now and then bring a third node to one side of an open
// contact and create a message there, so that side's MI merges new rows
// between two of its decisions.
func TestDecisionDrivenMEMDParity(t *testing.T) {
	const n = 12
	reg := community.New([]int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
	hyst := DefaultEERConfig(10)
	hyst.ForwardHysteresis = 30
	a2 := DefaultEERConfig(10)
	a2.MeanIntervalMD = true
	cases := []struct {
		name    string
		factory func() network.Router
		seed    int64
	}{
		{"EER", EERFactory(DefaultEERConfig(10), n), 11},
		{"EER-hysteresis", EERFactory(hyst, n), 12},
		{"EER-A2", EERFactory(a2, n), 13},
		{"CR", CRFactory(DefaultCRConfig(10), reg), 14},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, n, func(int) network.Router { return tc.factory() })
			oracles := make(map[*contact]map[int]float64)
			lives := make(map[*contact]int)
			meetingOf(h, 0).shared.started = func(m *meeting, st *contact) {
				oracles[st] = fullDelays(m, st)
				lives[st]++
			}
			rng := xrand.New(tc.seed)
			const isolated = n - 1     // never meets anyone
			dests := make(map[int]int) // message id -> destination
			var decisions, unreachablePeer, unreachableDst, afterMerge, recycled int
			// check compares every single-replica decision on the open
			// contacts with the oracle.
			check := func(round int) {
				for i := 0; i < isolated; i++ {
					m := meetingOf(h, i)
					for peer, st := range m.contacts {
						pm := meetingOf(h, peer)
						peerSt := pm.contacts[i]
						for id, got := range st.decided {
							dst := dests[id]
							if _, isCR := m.rule.(*CR); isCR && (reg.Of(dst) != reg.Of(i) || reg.Of(peer) != reg.Of(i)) {
								continue // Algorithm 3 and line 1 of Algorithm 4 use no MEMD
							}
							mo, po := oracles[st], oracles[peerSt]
							if mo == nil || po == nil {
								t.Fatalf("round %d: node %d decided message %d for peer %d without both searches started", round, i, id, peer)
							}
							myD, peerD := delayIn(mo, dst), delayIn(po, dst)
							if want := myD > peerD+m.hysteresis; got.forward != want {
								t.Fatalf("round %d: node %d, peer %d, destination %d: forward=%v, oracle myD=%v peerD=%v h=%v",
									round, i, peer, dst, got.forward, myD, peerD, m.hysteresis)
							}
							decisions++
							if math.IsInf(peerD, 1) {
								unreachablePeer++
							}
							if math.IsInf(myD, 1) && math.IsInf(peerD, 1) {
								unreachableDst++
							}
							if lives[st] > 1 {
								recycled++
							}
						}
					}
				}
			}
			send := func(from, to int) {
				if from != to {
					dests[h.send(from, to, rng.Uniform(300, 3000)).ID] = to
				}
			}
			for round := 0; round < 500; round++ {
				if round%2 == 0 {
					send(rng.Intn(isolated), rng.Intn(n))
				}
				a := rng.Intn(isolated)
				b := (a + 1 + rng.Intn(isolated-1)) % isolated
				if rng.Intn(2) == 0 {
					b = (a + 1) % isolated
				}
				h.movers[a].moveTo(-500, -500)
				h.movers[b].moveTo(-495, -500)
				h.runner.Run(h.runner.Now() + 1)
				if c := rng.Intn(isolated); round%3 == 0 && c != a && c != b {
					// c comes within range of a only: a merges c's rows
					// while its contact with b stays up, then decides a
					// new message on it.
					st := meetingOf(h, a).contacts[b]
					started, before := st.memd.Started(), len(st.decided)
					h.movers[c].moveTo(-509, -500)
					h.runner.Run(h.runner.Now() + 1)
					send(a, rng.Intn(n))
					h.runner.Run(h.runner.Now() + 1)
					if started && len(st.decided) > before {
						afterMerge++
					}
				}
				check(round)
				h.scatter()
				h.runner.Run(h.runner.Now() + rng.Uniform(2, 60))
			}
			t.Logf("%d decisions: %d with an unreachable peer, %d with an unreachable destination, %d sides deciding after a merge, %d on recycled contacts",
				decisions, unreachablePeer, unreachableDst, afterMerge, recycled)
			if decisions < 200 || unreachablePeer == 0 || unreachableDst == 0 || afterMerge == 0 || recycled == 0 {
				t.Fatal("the worlds did not reach every case")
			}
		})
	}
}

// TestEveryPumpFindsBothSides: every path that pumps a link — contact up,
// the wake of a message created at an endpoint, and transfer completion —
// finds both sides' contacts open, so a decision always has both
// searches; a pump that did not would panic naming both nodes. Transfers
// take 10 s, so each decision below can only come from the path named.
func TestEveryPumpFindsBothSides(t *testing.T) {
	h := newHarnessBandwidth(t, 4, 100, func(int) network.Router { return EERFactory(DefaultEERConfig(10), 4)() })
	decided := func(node, peer int, m *msg.Message) bool {
		st := meetingOf(h, node).contacts[peer]
		if st == nil {
			t.Fatalf("node %d has no contact with node %d", node, peer)
		}
		_, ok := st.decided[m.ID]
		return ok
	}
	// Contact up: node 2 holds a message when it meets node 1.
	up := h.send(2, 3, 1000)
	h.movers[2].moveTo(-500, -500)
	h.movers[1].moveTo(-495, -500)
	h.runner.Run(h.runner.Now() + 1)
	if !decided(2, 1, up) {
		t.Fatal("contact up: no decision")
	}
	h.scatter()
	h.runner.Run(h.runner.Now() + 2)

	// Wake: node 0 creates a message while its link to node 1 is idle.
	h.movers[0].moveTo(-500, -500)
	h.movers[1].moveTo(-495, -500)
	h.runner.Run(h.runner.Now() + 1)
	woken := h.send(0, 3, 1000)
	if !decided(0, 1, woken) {
		t.Fatal("wake: no decision")
	}
	// Completion: a message created while the link is busy waits for the
	// transfer to complete.
	queued := h.send(0, 2, 1000)
	if decided(0, 1, queued) {
		t.Fatal("a busy link pumped")
	}
	h.runner.Run(h.runner.Now() + 11)
	if !decided(0, 1, queued) {
		t.Fatal("transfer completion: no decision")
	}

	// A pump with the peer's side missing panics, naming both nodes.
	h.runner.Run(h.runner.Now() + 30) // the link drains
	pm := meetingOf(h, 1)
	delete(pm.contacts, 0)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "node 0") || !strings.Contains(msg, "node 1") {
			t.Fatalf("panic %q does not name both nodes", msg)
		}
	}()
	h.send(0, 3, 1000)
	t.Fatal("pump without the peer's contact did not panic")
}
