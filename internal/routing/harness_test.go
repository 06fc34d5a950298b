package routing

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/community"
	"repro/internal/geo"
	"repro/internal/msg"
	"repro/internal/network"
	"repro/internal/sim"
)

// scriptMover reports positions from a time-indexed function so tests can
// choreograph contacts exactly.
type scriptMover struct {
	t  float64
	at func(t float64) geo.Point
}

func (m *scriptMover) Pos() geo.Point { return m.at(m.t) }
func (m *scriptMover) Step(dt float64) geo.Point {
	m.t += dt
	return m.at(m.t)
}

func fixed(x, y float64) *scriptMover {
	return &scriptMover{at: func(float64) geo.Point { return geo.Point{X: x, Y: y} }}
}

// apart places every node out of range of every other: contacts are then
// created by moveTogether.
func apart(i int) *scriptMover { return fixed(float64(1000*i), 0) }

// harness owns a test world whose contacts are driven by explicit
// position switches.
type harness struct {
	t      *testing.T
	w      *network.World
	runner *sim.Runner
	movers []*switchMover
}

// switchMover holds a mutable position.
type switchMover struct {
	p geo.Point
}

func (m *switchMover) Pos() geo.Point         { return m.p }
func (m *switchMover) Step(float64) geo.Point { return m.p }
func (m *switchMover) moveTo(x, y float64)    { m.p = geo.Point{X: x, Y: y} }

// newHarness builds n nodes, each out of range of the others, using the
// given router constructor. Bandwidth is high (25 KB transfers take 25 ms)
// so a one-second tick completes many transfers.
func newHarness(t *testing.T, n int, router func(i int) network.Router) *harness {
	t.Helper()
	return newHarnessBandwidth(t, n, 1e6, router)
}

// newHarnessBandwidth is newHarness with the given link bandwidth in B/s.
func newHarnessBandwidth(t *testing.T, n int, bandwidth float64, router func(i int) network.Router) *harness {
	t.Helper()
	runner := sim.NewRunner(1)
	w := network.New(network.Config{Range: 10, Bandwidth: bandwidth}, runner)
	h := &harness{t: t, w: w, runner: runner}
	for i := 0; i < n; i++ {
		mv := &switchMover{p: geo.Point{X: float64(10000 * (i + 1)), Y: 0}}
		h.movers = append(h.movers, mv)
		w.AddNode(mv, buffer.New(0), router(i))
	}
	w.Start()
	return h
}

// meet brings nodes a and b into contact at a private location for dur
// seconds (others stay away), then separates everyone.
func (h *harness) meet(a, b int, dur float64) {
	h.movers[a].moveTo(-500, -500)
	h.movers[b].moveTo(-495, -500)
	h.runner.Run(h.runner.Now() + dur)
	h.scatter()
	h.runner.Run(h.runner.Now() + 2)
}

// gather brings a set of nodes into mutual contact for dur seconds.
func (h *harness) gather(ids []int, dur float64) {
	for k, id := range ids {
		h.movers[id].moveTo(-500+float64(k), -500)
	}
	h.runner.Run(h.runner.Now() + dur)
	h.scatter()
	h.runner.Run(h.runner.Now() + 2)
}

func (h *harness) scatter() {
	for i, mv := range h.movers {
		mv.moveTo(float64(10000*(i+1)), 0)
	}
}

// send creates a message at from destined to to with the given TTL.
func (h *harness) send(from, to int, ttl float64) *msg.Message {
	m := h.w.CreateMessage(h.runner.Now(), from, to, 1000, ttl)
	if m == nil {
		h.t.Fatal("message refused at source")
	}
	return m
}

func (h *harness) replicas(node int, m *msg.Message) int {
	c := h.w.Node(node).Copy(m.ID)
	if c == nil {
		return 0
	}
	return c.Replicas
}

// warmPair records k meetings between a and b spaced gap seconds apart,
// building contact history for estimator-driven protocols.
func (h *harness) warmPair(a, b int, k int, gap float64) {
	for i := 0; i < k; i++ {
		h.meet(a, b, 1)
		h.runner.Run(h.runner.Now() + gap - 3)
	}
}

// registry2x2 builds communities {0,1} and {2,3}.
func registry2x2() *community.Registry {
	return community.New([]int{0, 0, 1, 1})
}
