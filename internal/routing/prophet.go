package routing

import (
	"math"

	"repro/internal/network"
)

// Prophet implements Lindgren et al.'s probabilistic routing: delivery
// predictabilities P(i,j) grow on contact, age exponentially and propagate
// transitively; a message is replicated to encounters with a higher
// predictability for its destination.
type Prophet struct {
	Base
	// PInit, Beta, Gamma are the protocol constants (defaults 0.75, 0.25,
	// 0.98 as in the PRoPHET draft).
	PInit, Beta, Gamma float64
	// AgingUnit is the time quantum of one aging step, in seconds
	// (default 30).
	AgingUnit float64

	p        []float64
	lastAged float64
}

// NewProphet returns a PRoPHET router with the standard constants.
func NewProphet() *Prophet {
	return &Prophet{PInit: 0.75, Beta: 0.25, Gamma: 0.98, AgingUnit: 30}
}

// Init implements network.Router.
func (r *Prophet) Init(self *network.Node, w *network.World) {
	r.Base.Init(self, w)
	r.p = make([]float64, w.N())
}

// age applies exponential decay for the time since the last aging.
func (r *Prophet) age(t float64) {
	if t <= r.lastAged {
		return
	}
	k := (t - r.lastAged) / r.AgingUnit
	f := math.Pow(r.Gamma, k)
	for i := range r.p {
		r.p[i] *= f
	}
	r.lastAged = t
}

// P returns the aged delivery predictability for node k at time t.
func (r *Prophet) P(t float64, k int) float64 {
	r.age(t)
	return r.p[k]
}

// ContactUp implements network.Router: direct update then the transitive
// rule over the peer's table. The rule skips both contact ends; the loop
// runs over every entry and restores the own one instead, which keeps the
// skip tests out of the loop. The peer's entry needs no restore: the
// peer's own predictability is always 0, so its term never wins.
func (r *Prophet) ContactUp(t float64, peer *network.Node) {
	r.age(t)
	r.p[peer.ID] += (1 - r.p[peer.ID]) * r.PInit
	if pr, ok := peer.Router.(*Prophet); ok {
		pr.age(t)
		pij, beta, own := r.p[peer.ID], r.Beta, r.p[r.Self.ID]
		p := r.p[:len(pr.p)]
		for k, pjk := range pr.p {
			if v := pij * pjk * beta; v > p[k] {
				p[k] = v
			}
		}
		r.p[r.Self.ID] = own
	}
}

// NextTransfer implements network.Router.
func (r *Prophet) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := r.DeliverDirect(t, peer); p != nil {
		return p
	}
	pr, ok := peer.Router.(*Prophet)
	if !ok {
		return nil
	}
	for _, c := range r.Candidates(t, peer) {
		if pr.P(t, c.M.To) > r.P(t, c.M.To) {
			return network.Replicate(c)
		}
	}
	return nil
}
