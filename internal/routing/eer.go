package routing

import (
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

// EER implements the paper's Expected-Encounter based Routing (Section
// III, Algorithm 1): quota distribution proportional to TTL-scaled
// expected encounter values, and single-replica forwarding by minimum
// expected meeting delay. The meeting-time contact state lives in the
// embedded meeting layer, over an MI store covering every node.
type EER struct {
	meeting
	cfg EERConfig
}

// EERFactory returns a constructor producing EER routers that share one
// MEMD scratch and contact freelist sized for n nodes.
func EERFactory(cfg EERConfig, n int) func() network.Router {
	if cfg.Lambda < 1 {
		panic("routing: EER lambda must be >= 1")
	}
	shared := &meetingShared{memd: core.NewMEMD(n)}
	return func() network.Router {
		return &EER{cfg: cfg, meeting: meeting{
			shared:       shared,
			alpha:        cfg.Alpha,
			fixedHorizon: cfg.FixedHorizon,
			storeOnly:    cfg.MeanIntervalMD,
			hysteresis:   cfg.ForwardHysteresis,
			gossip:       cfg.Gossip,
		}}
	}
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
	r.init(self, w, r, r.cfg.Window, r.cfg.MaxSparseRows, core.NewFullMeetingMatrix(w.N()))
}

// ContactUp implements network.Router: record the meeting, refresh the own
// MI row and run the MI exchange with an EER peer (Algorithm 1 lines 3–5).
func (r *EER) ContactUp(t float64, peer *network.Node) {
	r.hist.RecordContact(peer.ID, t)
	r.exchange(t, r.peerMeeting(peer))
	r.contacts[peer.ID] = r.shared.get(t)
}

// peerMeeting implements meetingRule: only EER peers run the EER layer.
func (r *EER) peerMeeting(peer *network.Node) *meeting {
	if pr, ok := peer.Router.(*EER); ok {
		return &pr.meeting
	}
	return nil
}

// decide makes the Algorithm-1 decision for message c on the contact st,
// against the peer layer pm and its side peerSt of the contact.
func (r *EER) decide(st, peerSt *contact, pm *meeting, c *msg.Copy) decision {
	tau := r.horizon(c.M, st.t0)
	return decision{
		wSelf:   r.snapshot(st).EEV(tau),
		wPeer:   pm.snapshot(peerSt).EEV(tau),
		forward: r.forwards(st, peerSt, pm, c.M.To),
	}
}
