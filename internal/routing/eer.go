package routing

import (
	"math"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/network"
)

// EERConfig parameterises the EER router.
type EERConfig struct {
	// Lambda is the initial replica quota λ (paper default 10).
	Lambda int
	// Alpha scales the EEV horizon to α·TTL_k (paper value 0.28).
	Alpha float64
	// Window is the sliding-window capacity per peer (0 selects
	// core.DefaultWindow).
	Window int

	// FixedHorizon, when positive, replaces the α·TTL_k horizon with a
	// constant — the TTL-independent expected EV of the A1 ablation,
	// isolating the paper's central claim against EBR-style estimation.
	FixedHorizon float64
	// MeanIntervalMD, when true, builds the node's own MD row from plain
	// mean intervals rather than Theorem-2 elapsed-conditioned EMDs — the
	// MEED-style A2 ablation (Jones et al.).
	MeanIntervalMD bool
	// ForwardHysteresis only forwards a single replica when the peer's
	// MEMD undercuts the holder's by more than this many seconds. The
	// paper's Algorithm 1 uses a strict comparison (0); the A3 ablation
	// uses positive values to quantify estimator-noise ping-pong.
	ForwardHysteresis float64

	// MaxSparseRows caps the MI store at that many rows with stale-row
	// eviction (own row pinned); 0 = unbounded — a bound for long-horizon
	// runs.
	MaxSparseRows int

	// Gossip selects how the MI exchange at contacts is metered (and, in
	// delta mode, restricted): core.ExchangeFresher (the zero value, the
	// historical accounting), ExchangeFlood or ExchangeDelta. All modes
	// leave identical MI state — only the gossip byte counters differ.
	Gossip core.ExchangeMode
}

// DefaultEERConfig returns the paper's parameters with quota lambda.
func DefaultEERConfig(lambda int) EERConfig {
	return EERConfig{Lambda: lambda, Alpha: 0.28}
}

// eerShared is per-world state shared by all EER routers: the MEMD
// scratch (the MD of Theorem 3 is transient, so one calculator serves
// every node on the single simulation goroutine) plus freelists of
// per-contact state. Contacts are constant churn — every one allocated a
// snapshot, a decision map and a delay list — so recycling them removes
// the router layer's steady-state allocations entirely.
type eerShared struct {
	memd *core.MEMD

	snapPool []*core.EEVSnapshot
	ctPool   []*eerContact
}

func (sh *eerShared) getSnapshot() *core.EEVSnapshot {
	if n := len(sh.snapPool); n > 0 {
		s := sh.snapPool[n-1]
		sh.snapPool = sh.snapPool[:n-1]
		return s
	}
	return &core.EEVSnapshot{}
}

func (sh *eerShared) getContact(t0 float64) *eerContact {
	if n := len(sh.ctPool); n > 0 {
		st := sh.ctPool[n-1]
		sh.ctPool = sh.ctPool[:n-1]
		st.t0 = t0
		st.memdDone = false
		clear(st.decided)
		return st
	}
	return &eerContact{t0: t0, decided: make(map[int]eerDecision), pooled: true}
}

// putContact recycles a contact and its snapshot. Only pooled contacts
// (those from getContact) are recycled; decide's defensive fallback
// contacts are left to the garbage collector.
func (sh *eerShared) putContact(st *eerContact) {
	if !st.pooled {
		return
	}
	if st.snap != nil {
		sh.snapPool = append(sh.snapPool, st.snap)
		st.snap = nil
	}
	sh.ctPool = append(sh.ctPool, st)
}

// EER implements the paper's Expected-Encounter based Routing (Section
// III, Algorithm 1): quota distribution proportional to TTL-scaled
// expected encounter values, and single-replica forwarding by minimum
// expected meeting delay.
type EER struct {
	Base
	cfg    EERConfig
	shared *eerShared

	hist *core.History
	mi   *core.MeetingMatrix

	contacts map[int]*eerContact
}

// eerContact caches the per-contact estimator state: Algorithm 1 fixes
// routing information at meeting time t0.
type eerContact struct {
	t0   float64
	snap *core.EEVSnapshot
	// delays holds the MEMD run's reached destinations (absent = +Inf);
	// its backing array is retained across recycling.
	delays   []core.Reach
	memdDone bool
	decided  map[int]eerDecision
	pooled   bool // came from the shared freelist; recycled on contact down
}

// eerDecision is the meeting-time decision for one message.
type eerDecision struct {
	wSelf, wPeer float64 // EEV weights for the quota split
	forward      bool    // single-replica: hand over?
}

// NewEER returns an EER router. Routers of one world must share the same
// factory so they share the MD scratch; use EERFactory.
func NewEER(cfg EERConfig, shared *eerShared) *EER {
	if cfg.Lambda < 1 {
		panic("routing: EER lambda must be >= 1")
	}
	return &EER{cfg: cfg, shared: shared}
}

// EERFactory returns a constructor producing EER routers that share one
// MEMD scratch sized for n nodes.
func EERFactory(cfg EERConfig, n int) func() network.Router {
	shared := &eerShared{memd: core.NewMEMD(n)}
	return func() network.Router { return NewEER(cfg, shared) }
}

// Config returns the router's configuration.
func (r *EER) Config() EERConfig { return r.cfg }

// History exposes the contact history (tests, trace tools).
func (r *EER) History() *core.History { return r.hist }

// MI exposes the meeting-interval store (tests, trace tools).
func (r *EER) MI() core.MeetingStore { return r.mi }

// InitialReplicas implements network.Router.
func (r *EER) InitialReplicas(*msg.Message) int { return r.cfg.Lambda }

// Init implements network.Router.
func (r *EER) Init(self *network.Node, w *network.World) {
	r.Base.Init(self, w)
	n := w.N()
	r.hist = core.NewHistory(self.ID, n, r.cfg.Window)
	r.mi = core.NewFullMeetingMatrix(n)
	if r.cfg.MaxSparseRows > 0 {
		r.mi.SetMaxRows(r.cfg.MaxSparseRows, self.ID)
	}
	r.contacts = make(map[int]*eerContact)
	if r.shared == nil {
		r.shared = &eerShared{memd: core.NewMEMD(n)}
	}
}

// ContactUp implements network.Router: record the meeting, refresh the own
// MI row and run the freshness-based MI exchange (Algorithm 1 lines 3–5).
func (r *EER) ContactUp(t float64, peer *network.Node) {
	r.hist.RecordContact(peer.ID, t)
	r.mi.UpdateOwnRow(r.Self.ID, t, r.hist)
	if pr, ok := peer.Router.(*EER); ok {
		st := core.SyncMode(r.mi, pr.mi, r.Self.ID, peer.ID, r.cfg.Gossip)
		r.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
	}
	r.contacts[peer.ID] = r.shared.getContact(t)
}

// ContactDown implements network.Router.
func (r *EER) ContactDown(t float64, peer *network.Node) {
	r.Base.ContactDown(t, peer)
	if st := r.contacts[peer.ID]; st != nil {
		r.shared.putContact(st)
		delete(r.contacts, peer.ID)
	}
}

// snapshot lazily builds the meeting-time EEV snapshot for a contact.
func (r *EER) snapshot(st *eerContact) *core.EEVSnapshot {
	if st.snap == nil {
		if st.pooled {
			st.snap = r.hist.SnapshotEEVInto(st.t0, r.shared.getSnapshot())
		} else {
			st.snap = r.hist.SnapshotEEV(st.t0)
		}
	}
	return st.snap
}

// memdTo lazily runs the contact's MEMD and returns the delay to dst. The
// contact keeps the reached destinations only, so its state grows with
// the observed contact graph.
func (r *EER) memdTo(st *eerContact, dst int) float64 {
	if !st.memdDone {
		calc := r.shared.memd
		if r.cfg.MeanIntervalMD {
			calc.ComputeStoreOnly(r.Self.ID, r.mi)
		} else {
			calc.Compute(r.Self.ID, st.t0, r.hist, r.mi)
		}
		st.delays = append(st.delays[:0], calc.Reached()...)
		st.memdDone = true
	}
	return core.DistTo(st.delays, dst)
}

// horizon returns the EEV horizon for message m decided at time t.
func (r *EER) horizon(m *msg.Message, t float64) float64 {
	if r.cfg.FixedHorizon > 0 {
		return r.cfg.FixedHorizon
	}
	res := m.ResidualTTL(t)
	if res < 0 {
		res = 0
	}
	return r.cfg.Alpha * res
}

// decide makes the Algorithm-1 decision for message c against peer pr on
// the contact st.
func (r *EER) decide(st *eerContact, pr *EER, c *msg.Copy) eerDecision {
	var d eerDecision
	tau := r.horizon(c.M, st.t0)
	peerSt := pr.contacts[r.Self.ID]
	if peerSt == nil {
		// The peer has not (yet) seen this contact; fall back to direct
		// evaluation at our meeting time.
		peerSt = &eerContact{t0: st.t0, decided: map[int]eerDecision{}}
	}
	d.wSelf = r.snapshot(st).EEV(tau)
	d.wPeer = pr.snapshot(peerSt).EEV(tau)
	myD := r.memdTo(st, c.M.To)
	peerD := pr.memdTo(peerSt, c.M.To)
	d.forward = myD > peerD+r.cfg.ForwardHysteresis && !math.IsInf(peerD, 1)
	return d
}

// NextTransfer implements network.Router (Algorithm 1 lines 6–18).
func (r *EER) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := r.DeliverDirect(t, peer); p != nil {
		return p
	}
	pr, ok := peer.Router.(*EER)
	if !ok {
		return nil
	}
	st := r.contacts[peer.ID]
	if st == nil {
		return nil
	}
	for _, c := range r.Candidates(t, peer) {
		d, seen := st.decided[c.M.ID]
		if !seen {
			d = r.decide(st, pr, c)
			st.decided[c.M.ID] = d
		}
		if c.Replicas > 1 {
			if p := SplitPlan(c, QuotaShare(c.Replicas, d.wSelf, d.wPeer)); p != nil {
				return p
			}
			continue
		}
		if d.forward {
			return network.Forward(c)
		}
	}
	return nil
}
