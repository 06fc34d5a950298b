package routing

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/network"
)

// This file is the meeting-time contact layer EER and CR share. CR routes
// within a community by running EER restricted to it (Section IV), so both
// fix the same estimator state at the meeting time t0 of Algorithm 1: an
// EEV snapshot, an MEMD run and one decision per message. The routers keep
// only what the paper makes different: the MI store's scope, the exchange
// condition at contact up and the decision itself.

// meetingShared is per-world state shared by the routers of one factory:
// the MEMD kernel (the MD of Theorem 3 is transient, so one calculator
// serves every node on the single simulation goroutine, resuming each
// contact side's paused search in turn) and a freelist of per-contact
// state. Contacts are constant churn — each needs a snapshot, a search and
// a decision map — so recycling them removes the router layer's
// steady-state allocations.
type meetingShared struct {
	memd *core.MEMD
	free []*contact

	// started, when set (tests only), sees every contact side's MEMD
	// inputs as they freeze.
	started func(m *meeting, st *contact)
}

// get returns a contact opened at t0, recycled when one is free. A
// recycled contact keeps its storage but none of its state (ContactDown
// already cleared its search).
func (sh *meetingShared) get(t0 float64) *contact {
	if n := len(sh.free); n > 0 {
		st := sh.free[n-1]
		sh.free = sh.free[:n-1]
		st.t0 = t0
		st.snapDone = false
		clear(st.decided)
		return st
	}
	return &contact{t0: t0, decided: make(map[int]decision)}
}

// contact caches one side's estimator state for one contact: Algorithm 1
// fixes routing information at meeting time t0.
type contact struct {
	t0 float64
	// snap holds the EEV snapshot at t0 once snapDone; its storage is
	// retained across recycling.
	snap     *core.EEVSnapshot
	snapDone bool
	// memd is the side's Theorem-3 search: its inputs freeze at the
	// contact's first single-replica decision and each decision settles
	// it only as far as it needs. Its storage is retained across
	// recycling.
	memd    core.MEMDRun
	decided map[int]decision
}

// decision is the meeting-time decision for one message. EER sets only the
// weights and forward; handAll and skip are CR's (Algorithms 3 and 4).
type decision struct {
	wSelf, wPeer float64 // quota weights (EEV, ENEC or EEV')
	handAll      bool    // peer is in the destination community: give everything
	skip         bool    // Algorithm 4 line 1: peer outside our community
	forward      bool    // single replica: hand over?
}

// meetingRule is what a router built on the meeting layer supplies: the
// peer's layer when the peer runs the same protocol, and the decision for
// one message. The decide-once loop calls it through this interface, once
// per undecided message.
type meetingRule interface {
	peerMeeting(peer *network.Node) *meeting
	decide(st, peerSt *contact, pm *meeting, c *msg.Copy) decision
}

// meeting is the per-node estimator EER and CR embed: the contact history,
// the MI store and the open contacts, with the parameters of the horizon,
// the MD and the single-replica rule.
type meeting struct {
	Base
	shared *meetingShared
	rule   meetingRule

	hist *core.History
	mi   *core.MeetingMatrix

	alpha        float64
	fixedHorizon float64 // A1: constant EEV horizon when positive
	storeOnly    bool    // A2: MD from mean intervals only
	hysteresis   float64 // single-replica margin h (0 for CR)
	gossip       core.ExchangeMode

	contacts map[int]*contact
}

// init binds the layer to its node, its rule and its MI store.
func (m *meeting) init(self *network.Node, w *network.World, rule meetingRule, window, maxRows int, mi *core.MeetingMatrix) {
	m.Base.Init(self, w)
	m.rule = rule
	m.hist = core.NewHistory(self.ID, w.N(), window)
	m.mi = mi
	if maxRows > 0 {
		m.mi.SetMaxRows(maxRows, self.ID)
	}
	m.contacts = make(map[int]*contact)
}

// exchange refreshes the own MI row at t and, when pm is non-nil, runs the
// freshness-based MI exchange with it (Algorithm 1 lines 3–5).
func (m *meeting) exchange(t float64, pm *meeting) {
	m.mi.UpdateOwnRow(m.Self.ID, t, m.hist)
	if pm != nil {
		st := core.SyncMode(m.mi, pm.mi, m.Self.ID, pm.Self.ID, m.gossip)
		m.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
	}
}

// ContactDown implements network.Router, recycling the contact's state.
func (m *meeting) ContactDown(t float64, peer *network.Node) {
	m.Base.ContactDown(t, peer)
	if st := m.contacts[peer.ID]; st != nil {
		st.memd.Clear()
		m.shared.free = append(m.shared.free, st)
		delete(m.contacts, peer.ID)
	}
}

// snapshot lazily builds the contact's meeting-time EEV snapshot.
func (m *meeting) snapshot(st *contact) *core.EEVSnapshot {
	if !st.snapDone {
		if st.snap == nil {
			st.snap = &core.EEVSnapshot{}
		}
		m.hist.SnapshotEEVInto(st.t0, st.snap)
		st.snapDone = true
	}
	return st.snap
}

// startMEMD freezes the contact side's MEMD inputs at its first use:
// Theorem 3 from the own row conditioned on the time elapsed at t0, or the
// A2 mean-interval MD from the store alone, over the MI store as it is now.
func (m *meeting) startMEMD(st *contact) {
	if st.memd.Started() {
		return
	}
	if m.storeOnly {
		m.shared.memd.StartStoreOnly(&st.memd, m.Self.ID, m.mi)
	} else {
		m.shared.memd.Start(&st.memd, m.Self.ID, st.t0, m.hist, m.mi)
	}
	if m.shared.started != nil {
		m.shared.started(m, st)
	}
}

// forwards is the single-replica rule of Algorithms 1 and 4: hand the copy
// over when the peer's MEMD to dst undercuts ours by more than h. Both
// sides' inputs freeze here at their first decision, but the peer's search
// runs first, and only until dst: a peer that cannot reach dst (+Inf)
// never qualifies for any finite h, so ours is then never searched, and
// otherwise ours stops once its delay is known to be above or within
// peerD + h.
func (m *meeting) forwards(st, peerSt *contact, pm *meeting, dst int) bool {
	m.startMEMD(st)
	pm.startMEMD(peerSt)
	peerD := pm.shared.memd.DelayTo(&peerSt.memd, dst)
	if math.IsInf(peerD, 1) {
		return false
	}
	return m.shared.memd.Exceeds(&st.memd, dst, peerD+m.hysteresis)
}

// horizon returns the EEV horizon for message k decided at time t:
// α·TTL_k, or the A1 ablation's constant.
func (m *meeting) horizon(k *msg.Message, t float64) float64 {
	if m.fixedHorizon > 0 {
		return m.fixedHorizon
	}
	res := k.ResidualTTL(t)
	if res < 0 {
		res = 0
	}
	return m.alpha * res
}

// NextTransfer implements network.Router: direct delivery first, then each
// candidate's meeting-time decision, made once per contact (Algorithm 1
// lines 6–18, Algorithms 2–4).
func (m *meeting) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := m.DeliverDirect(t, peer); p != nil {
		return p
	}
	pm := m.rule.peerMeeting(peer)
	if pm == nil {
		return nil
	}
	st := m.contacts[peer.ID]
	if st == nil {
		return nil
	}
	for _, c := range m.Candidates(t, peer) {
		d, seen := st.decided[c.M.ID]
		if !seen {
			// World.contactUp runs both sides' ContactUp, which open
			// both contacts, before the link's first pump.
			peerSt := pm.contacts[m.Self.ID]
			if peerSt == nil {
				panic(fmt.Sprintf("routing: node %d pumps its contact with node %d, which has no contact open with it", m.Self.ID, peer.ID))
			}
			d = m.rule.decide(st, peerSt, pm, c)
			st.decided[c.M.ID] = d
		}
		switch {
		case d.skip:
			continue
		case d.handAll:
			return network.Forward(c)
		case c.Replicas > 1:
			if p := SplitPlan(c, QuotaShare(c.Replicas, d.wSelf, d.wPeer)); p != nil {
				return p
			}
		case d.forward:
			return network.Forward(c)
		}
	}
	return nil
}
