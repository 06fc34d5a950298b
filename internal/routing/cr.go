package routing

import (
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
	// MaxSparseRows caps the intra-community MI store at that many
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

// CR implements the paper's Community based Routing (Section IV,
// Algorithms 2–4). Inter-community: quota split by expected number of
// encountered communities (Theorem 4), single replica forwarded toward the
// higher destination-community probability, and everything handed over on
// meeting a destination-community member. Intra-community: EER restricted
// to the community — the embedded meeting layer runs over an MI store
// covering only the node's community (intra MI/MD and intra EEV'), which
// is the protocol's state-size advantage over EER.
type CR struct {
	meeting
	cfg     CRConfig
	reg     *community.Registry
	scopes  []core.ScopeSet // by community id, shared by the factory's routers
	ownComm int
}

// CRFactory returns a constructor producing CR routers over the given
// community registry.
func CRFactory(cfg CRConfig, reg *community.Registry) func() network.Router {
	if cfg.Lambda < 1 {
		panic("routing: CR lambda must be >= 1")
	}
	shared := &meetingShared{memd: core.NewMEMD(reg.N())}
	scopes := make([]core.ScopeSet, reg.Count())
	return func() network.Router {
		return &CR{cfg: cfg, reg: reg, scopes: scopes, meeting: meeting{
			shared: shared,
			alpha:  cfg.Alpha,
			gossip: cfg.Gossip,
		}}
	}
}

// Config returns the router's configuration.
func (r *CR) Config() CRConfig { return r.cfg }

// Registry returns the community registry.
func (r *CR) Registry() *community.Registry { return r.reg }

// History exposes the contact history (tests, trace tools).
func (r *CR) History() *core.History { return r.hist }

// IntraMI exposes the intra-community meeting-interval store.
func (r *CR) IntraMI() core.MeetingStore { return r.mi }

// InitialReplicas implements network.Router.
func (r *CR) InitialReplicas(*msg.Message) int { return r.cfg.Lambda }

// Init implements network.Router. The community's member-id set is built
// on first use and shared; router Init runs serially at world build, so
// no locking.
func (r *CR) Init(self *network.Node, w *network.World) {
	r.ownComm = r.reg.Of(self.ID)
	if r.scopes[r.ownComm] == nil {
		r.scopes[r.ownComm] = core.NewScopeSet(r.reg.Members(r.ownComm))
	}
	r.init(self, w, r, r.cfg.Window, r.cfg.MaxSparseRows, core.NewScopedMeetingMatrix(r.scopes[r.ownComm]))
}

// ContactUp implements network.Router: record the meeting and, within the
// community, refresh and exchange the intra-community MI (Algorithm 4
// lines 2–3).
func (r *CR) ContactUp(t float64, peer *network.Node) {
	r.hist.RecordContact(peer.ID, t)
	if pm := r.peerMeeting(peer); pm != nil && r.reg.Of(peer.ID) == r.ownComm {
		r.exchange(t, pm)
	}
	r.contacts[peer.ID] = r.shared.get(t)
}

// peerMeeting implements meetingRule: only CR peers run the CR layer.
func (r *CR) peerMeeting(peer *network.Node) *meeting {
	if pr, ok := peer.Router.(*CR); ok {
		return &pr.meeting
	}
	return nil
}

// decide applies Algorithm 3 (inter-community) or Algorithm 4
// (intra-community) at meeting time.
func (r *CR) decide(st, peerSt *contact, pm *meeting, c *msg.Copy) decision {
	var d decision
	reg := r.reg
	destComm := reg.Of(c.M.To)
	peerComm := reg.Of(pm.Self.ID)
	tau := r.horizon(c.M, st.t0)

	if r.ownComm != destComm {
		// Inter-community routing (Algorithm 3).
		if peerComm == destComm {
			d.handAll = true
			return d
		}
		d.wSelf = r.snapshot(st).ENEC(tau, reg.Communities(), r.ownComm)
		d.wPeer = pm.snapshot(peerSt).ENEC(tau, reg.Communities(), peerComm)
		pic := r.snapshot(st).CommunityProb(tau, reg.Members(destComm))
		pjc := pm.snapshot(peerSt).CommunityProb(tau, reg.Members(destComm))
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
	d.wPeer = pm.snapshot(peerSt).EEVSubset(tau, members)
	d.forward = r.forwards(st, peerSt, pm, c.M.To)
	return d
}
