package routing

import (
	"math"

	"repro/internal/msg"
	"repro/internal/network"
)

// SprayAndWait implements Spyropoulos et al.'s binary Spray-and-Wait:
// while a copy carries more than one replica, half the quota is handed to
// each encounter; with one replica left the node waits for the
// destination.
type SprayAndWait struct {
	Base
	// Lambda is the initial replica count λ.
	Lambda int
	// Binary selects binary spraying (default true when constructed via
	// NewSprayAndWait); source spraying hands out single replicas.
	Binary bool
}

// NewSprayAndWait returns a binary Spray-and-Wait router with quota
// lambda.
func NewSprayAndWait(lambda int) *SprayAndWait {
	return &SprayAndWait{Lambda: lambda, Binary: true}
}

// InitialReplicas implements network.Router.
func (r *SprayAndWait) InitialReplicas(*msg.Message) int { return r.Lambda }

// NextTransfer implements network.Router.
func (r *SprayAndWait) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := r.DeliverDirect(t, peer); p != nil {
		return p
	}
	for _, c := range r.Candidates(t, peer) {
		if c.Replicas <= 1 {
			continue // wait phase
		}
		give := 1
		if r.Binary {
			give = c.Replicas / 2
		}
		if p := SplitPlan(c, give); p != nil {
			return p
		}
	}
	return nil
}

// SprayAndFocus replaces the wait phase with focus (Spyropoulos et al.):
// the last replica is forwarded to encounters with fresher last-seen
// information about the destination, propagated transitively with a
// penalty — adopting a peer's timer costs TransitivityPenalty seconds, the
// scheme's stand-in for the expected transit time between the nodes.
// Without the penalty the contact-time merge would equalise both nodes'
// timers and focus would never fire.
type SprayAndFocus struct {
	Base
	// Lambda is the initial replica count λ.
	Lambda int
	// FocusThreshold is how much fresher (seconds) the peer's last-seen
	// time must be to trigger a focus forward.
	FocusThreshold float64
	// TransitivityPenalty ages timers adopted from peers (default 120 s).
	TransitivityPenalty float64

	lastSeen []float64 // most recent time each node was in contact; -Inf never
}

// NewSprayAndFocus returns a binary Spray-and-Focus router.
func NewSprayAndFocus(lambda int) *SprayAndFocus {
	return &SprayAndFocus{Lambda: lambda, TransitivityPenalty: 120}
}

// InitialReplicas implements network.Router.
func (r *SprayAndFocus) InitialReplicas(*msg.Message) int { return r.Lambda }

// Init implements network.Router.
func (r *SprayAndFocus) Init(self *network.Node, w *network.World) {
	r.Base.Init(self, w)
	r.lastSeen = make([]float64, w.N())
	for i := range r.lastSeen {
		r.lastSeen[i] = math.Inf(-1)
	}
}

// ContactUp implements network.Router: refresh the direct timer and adopt
// the peer's fresher timers (the scheme's transitive timer update), each
// aged by TransitivityPenalty. adoptTimers merges every entry — on amd64
// two at a time with SSE2, bit-identical to the scalar loop — and the own
// timer, which is never adopted, is restored afterwards, which keeps the
// skip test out of the merge.
func (r *SprayAndFocus) ContactUp(t float64, peer *network.Node) {
	r.lastSeen[peer.ID] = t
	if pr, ok := peer.Router.(*SprayAndFocus); ok {
		own := r.lastSeen[r.Self.ID]
		adoptTimers(r.lastSeen, pr.lastSeen, r.TransitivityPenalty)
		r.lastSeen[r.Self.ID] = own
	}
}

// LastSeen returns the router's freshest contact time for node k (-Inf if
// never heard of).
func (r *SprayAndFocus) LastSeen(k int) float64 { return r.lastSeen[k] }

// NextTransfer implements network.Router.
func (r *SprayAndFocus) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := r.DeliverDirect(t, peer); p != nil {
		return p
	}
	pr, _ := peer.Router.(*SprayAndFocus)
	for _, c := range r.Candidates(t, peer) {
		if c.Replicas > 1 {
			if p := SplitPlan(c, c.Replicas/2); p != nil {
				return p
			}
			continue
		}
		// Focus phase: forward to a peer with a strictly fresher view of
		// the destination.
		if pr == nil {
			continue
		}
		if pr.lastSeen[c.M.To] > r.lastSeen[c.M.To]+r.FocusThreshold {
			return network.Forward(c)
		}
	}
	return nil
}
