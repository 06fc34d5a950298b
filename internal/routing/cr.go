package routing

import (
	"math"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/network"
)

// CRConfig parameterises the CR router.
type CRConfig struct {
	// Lambda is the initial replica quota λ (paper default 10).
	Lambda int
	// Alpha scales the ENEC/EEV horizon to α·TTL_k (paper value 0.28).
	Alpha float64
	// Window is the sliding-window capacity per peer.
	Window int
	// SparseEstimators selects the sparse estimator core (observed-peer
	// history and intra-community MI, heap MEMD'), with bit-identical
	// decisions; mandatory at city scale.
	SparseEstimators bool
	// MaxSparseRows caps the sparse intra-community MI store at that many
	// rows with stale-row eviction (own row pinned); 0 = unbounded.
	MaxSparseRows int

	// Gossip selects how the intra-community MI exchange is metered (and,
	// in delta mode, restricted); see core.ExchangeMode. The zero value is
	// the historical fresher accounting.
	Gossip core.ExchangeMode
}

// DefaultCRConfig returns the paper's parameters with quota lambda.
func DefaultCRConfig(lambda int) CRConfig {
	return CRConfig{Lambda: lambda, Alpha: 0.28}
}

// crShared is per-world state shared by all CR routers: the community
// registry, one MEMD scratch per community size (dense mode) or one
// size-independent sparse calculator, and a freelist of per-contact state
// (as EER's), so contacts stop allocating their delay and decision
// storage.
type crShared struct {
	reg    *community.Registry
	memd   map[int]*core.MEMD    // keyed by community size; dense mode only
	smemd  *core.SparseMEMD      // sparse mode only
	scopes map[int]core.ScopeSet // keyed by community id; sparse mode only

	ctPool []*crContact
}

func (s *crShared) getContact(t0 float64) *crContact {
	if n := len(s.ctPool); n > 0 {
		st := s.ctPool[n-1]
		s.ctPool = s.ctPool[:n-1]
		st.t0 = t0
		st.snap = nil
		st.memd = nil
		st.memdDone = false
		clear(st.memdMap)
		clear(st.decided)
		return st
	}
	return &crContact{t0: t0, decided: make(map[int]crDecision), pooled: true}
}

// putContact recycles a contact; decide's fallback contacts are left to
// the garbage collector.
func (s *crShared) putContact(st *crContact) {
	if st.pooled {
		s.ctPool = append(s.ctPool, st)
	}
}

// scopeFor returns the shared member-id set of community c, built on first
// use. Router Init runs serially at world build, so no locking.
func (s *crShared) scopeFor(c int) core.ScopeSet {
	sc, ok := s.scopes[c]
	if !ok {
		sc = core.NewScopeSet(s.reg.Members(c))
		s.scopes[c] = sc
	}
	return sc
}

func (s *crShared) memdFor(size int) *core.MEMD {
	m, ok := s.memd[size]
	if !ok {
		m = core.NewMEMD(size)
		s.memd[size] = m
	}
	return m
}

// CR implements the paper's Community based Routing (Section IV,
// Algorithms 2–4). Inter-community: quota split by expected number of
// encountered communities (Theorem 4), single replica forwarded toward the
// higher destination-community probability, and everything handed over on
// meeting a destination-community member. Intra-community: EER restricted
// to the community — intra MI/MD and intra EEV' — which is the protocol's
// state-size advantage over EER.
type CR struct {
	Base
	cfg    CRConfig
	shared *crShared

	hist    *core.History
	intraMI core.MeetingStore // covers only the node's community
	ownComm int

	contacts map[int]*crContact
}

// crContact caches per-contact estimator state at meeting time.
type crContact struct {
	t0   float64
	snap *core.EEVSnapshot
	// snapBuf is the pooled contact's snapshot storage, retained across
	// recycling (snap points at it once built).
	snapBuf *core.EEVSnapshot
	// Dense mode: intra-community MEMD by MI-local index; nil until built.
	memd    []float64
	memdBuf []float64 // retained backing array for memd across recycling
	// Sparse mode: delays for reached destinations only (absent = +Inf);
	// the map is retained and cleared across recycling.
	memdMap  map[int]float64
	memdDone bool
	decided  map[int]crDecision
	pooled   bool // came from the shared freelist; recycled on contact down
}

// crDecision is the meeting-time decision for one message.
type crDecision struct {
	handAll      bool    // peer is in the destination community: give everything
	skip         bool    // Algorithm 4 line 1: peer outside our community
	wSelf, wPeer float64 // quota weights (ENEC inter, EEV' intra)
	forward      bool    // single replica: hand over?
}

// NewCR returns a CR router; use CRFactory so routers share the registry
// and scratch.
func NewCR(cfg CRConfig, shared *crShared) *CR {
	if cfg.Lambda < 1 {
		panic("routing: CR lambda must be >= 1")
	}
	return &CR{cfg: cfg, shared: shared}
}

// CRFactory returns a constructor producing CR routers over the given
// community registry.
func CRFactory(cfg CRConfig, reg *community.Registry) func() network.Router {
	shared := &crShared{reg: reg}
	if cfg.SparseEstimators {
		shared.smemd = core.NewSparseMEMD()
		shared.scopes = make(map[int]core.ScopeSet)
	} else {
		shared.memd = make(map[int]*core.MEMD)
	}
	return func() network.Router { return NewCR(cfg, shared) }
}

// Config returns the router's configuration.
func (r *CR) Config() CRConfig { return r.cfg }

// Registry returns the community registry.
func (r *CR) Registry() *community.Registry { return r.shared.reg }

// History exposes the contact history (tests, trace tools).
func (r *CR) History() *core.History { return r.hist }

// IntraMI exposes the intra-community meeting-interval store.
func (r *CR) IntraMI() core.MeetingStore { return r.intraMI }

// InitialReplicas implements network.Router.
func (r *CR) InitialReplicas(*msg.Message) int { return r.cfg.Lambda }

// Init implements network.Router.
func (r *CR) Init(self *network.Node, w *network.World) {
	r.Base.Init(self, w)
	r.ownComm = r.shared.reg.Of(self.ID)
	if r.cfg.SparseEstimators {
		r.hist = core.NewSparseHistory(self.ID, w.N(), r.cfg.Window)
		mi := core.NewSharedScopeSparseMeetingStore(r.shared.scopeFor(r.ownComm))
		if r.cfg.MaxSparseRows > 0 {
			mi.SetMaxRows(r.cfg.MaxSparseRows, self.ID)
		}
		r.intraMI = mi
	} else {
		r.hist = core.NewHistory(self.ID, w.N(), r.cfg.Window)
		r.intraMI = core.NewMeetingMatrix(r.shared.reg.Members(r.ownComm))
	}
	r.contacts = make(map[int]*crContact)
}

// ContactUp implements network.Router: record the meeting and, within the
// community, refresh and exchange the intra-community MI (Algorithm 4
// lines 2–3).
func (r *CR) ContactUp(t float64, peer *network.Node) {
	r.hist.RecordContact(peer.ID, t)
	if pr, ok := peer.Router.(*CR); ok && pr.ownComm == r.ownComm {
		r.intraMI.UpdateOwnRow(r.Self.ID, t, r.hist)
		st := core.SyncMode(r.intraMI, pr.intraMI, r.Self.ID, peer.ID, r.cfg.Gossip)
		r.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
	}
	r.contacts[peer.ID] = r.shared.getContact(t)
}

// ContactDown implements network.Router.
func (r *CR) ContactDown(t float64, peer *network.Node) {
	r.Base.ContactDown(t, peer)
	if st := r.contacts[peer.ID]; st != nil {
		r.shared.putContact(st)
		delete(r.contacts, peer.ID)
	}
}

// snapshot lazily builds the meeting-time EEV snapshot for a contact,
// into the contact's retained storage when it is pooled.
func (r *CR) snapshot(st *crContact) *core.EEVSnapshot {
	if st.snap == nil {
		if st.pooled {
			if st.snapBuf == nil {
				st.snapBuf = &core.EEVSnapshot{}
			}
			st.snap = r.hist.SnapshotEEVInto(st.t0, st.snapBuf)
		} else {
			st.snap = r.hist.SnapshotEEV(st.t0)
		}
	}
	return st.snap
}

// intraMEMD returns the intra-community MEMD' to dst at the contact's
// meeting time. The dense mode caches the distance vector by MI-local
// index, the sparse mode a map of reached destinations; unreached or
// uncovered destinations read +Inf either way.
func (r *CR) intraMEMD(st *crContact, dst int) float64 {
	if r.cfg.SparseEstimators {
		if !st.memdDone {
			calc := r.shared.smemd
			calc.Compute(r.Self.ID, st.t0, r.hist, r.intraMI)
			if st.memdMap == nil {
				st.memdMap = make(map[int]float64)
			}
			calc.ForEachReached(func(id int, d float64) { st.memdMap[id] = d })
			st.memdDone = true
		}
		if d, ok := st.memdMap[dst]; ok {
			return d
		}
		return math.Inf(1)
	}
	mi := r.intraMI.(*core.MeetingMatrix)
	if st.memd == nil {
		calc := r.shared.memdFor(mi.Size())
		calc.Compute(r.Self.ID, st.t0, r.hist, mi)
		st.memd = append(st.memdBuf[:0], calc.Distances()...)
		st.memdBuf = st.memd
	}
	if j, ok := mi.Index(dst); ok {
		return st.memd[j]
	}
	return math.Inf(1)
}

func (r *CR) horizon(m *msg.Message, t float64) float64 {
	res := m.ResidualTTL(t)
	if res < 0 {
		res = 0
	}
	return r.cfg.Alpha * res
}

// decide applies Algorithm 3 (inter-community) or Algorithm 4
// (intra-community) at meeting time.
func (r *CR) decide(st *crContact, peer *network.Node, pr *CR, c *msg.Copy) crDecision {
	var d crDecision
	reg := r.shared.reg
	destComm := reg.Of(c.M.To)
	peerComm := pr.ownComm
	tau := r.horizon(c.M, st.t0)

	peerSt := pr.contacts[r.Self.ID]
	if peerSt == nil {
		peerSt = &crContact{t0: st.t0, decided: map[int]crDecision{}}
	}

	if r.ownComm != destComm {
		// Inter-community routing (Algorithm 3).
		if peerComm == destComm {
			d.handAll = true
			return d
		}
		d.wSelf = r.snapshot(st).ENEC(tau, reg.Communities(), r.ownComm)
		d.wPeer = pr.snapshot(peerSt).ENEC(tau, reg.Communities(), peerComm)
		pic := r.snapshot(st).CommunityProb(tau, reg.Members(destComm))
		pjc := pr.snapshot(peerSt).CommunityProb(tau, reg.Members(destComm))
		d.forward = pic < pjc
		return d
	}
	// Intra-community routing (Algorithm 4): only members of the
	// destination community participate.
	if peerComm != r.ownComm {
		d.skip = true
		return d
	}
	members := reg.Members(r.ownComm)
	d.wSelf = r.snapshot(st).EEVSubset(tau, members)
	d.wPeer = pr.snapshot(peerSt).EEVSubset(tau, members)
	myD := r.intraMEMD(st, c.M.To)
	peerD := pr.intraMEMD(peerSt, c.M.To)
	d.forward = myD > peerD && !(math.IsInf(myD, 1) && math.IsInf(peerD, 1))
	return d
}

// NextTransfer implements network.Router (Algorithms 2–4).
func (r *CR) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := r.DeliverDirect(t, peer); p != nil {
		return p
	}
	pr, ok := peer.Router.(*CR)
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
			d = r.decide(st, peer, pr, c)
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
