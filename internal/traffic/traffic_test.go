package traffic

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/msg"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// sink is a do-nothing router.
type sink struct{}

func (sink) Init(*network.Node, *network.World)                {}
func (sink) InitialReplicas(*msg.Message) int                  { return 1 }
func (sink) ContactUp(float64, *network.Node)                  {}
func (sink) ContactDown(float64, *network.Node)                {}
func (sink) Created(float64, *msg.Copy)                        {}
func (sink) Received(float64, *msg.Copy, *network.Node)        {}
func (sink) Sent(float64, *network.Plan, *network.Node, bool)  {}
func (sink) NextTransfer(float64, *network.Node) *network.Plan { return nil }

func sinkWorld(n int) (*network.World, *sim.Runner) {
	runner := sim.NewRunner(1)
	w := network.New(network.Config{Range: 10, Bandwidth: 1000}, runner)
	for i := 0; i < n; i++ {
		w.AddNode(&mobility.Stationary{P: geo.Point{X: float64(1000 * i)}}, buffer.New(0), sink{})
	}
	w.Start()
	return w, runner
}

func TestUniformGeneratesInWindow(t *testing.T) {
	w, runner := sinkWorld(5)
	var created []*msg.Message
	u := &Uniform{MinInterval: 10, MaxInterval: 20, Size: 500, TTL: 300, Start: 0, Stop: 500, Rng: xrand.New(1)}
	u.Install(w)
	runner.Run(1000)
	total := 0
	for _, n := range w.Nodes() {
		for _, c := range n.Buf.All() {
			created = append(created, c.M)
			total++
		}
	}
	gen := w.Metrics.Generated()
	// Expected roughly 500/15 ≈ 33 messages.
	if gen < 25 || gen > 50 {
		t.Fatalf("generated %d messages, want ~33", gen)
	}
	for _, m := range created {
		if m.Created > 500 {
			t.Errorf("message created at %g, after stop", m.Created)
		}
		if m.From == m.To {
			t.Error("self-addressed message")
		}
		if m.Size != 500 || m.TTL() != 300 {
			t.Errorf("message params wrong: size=%d ttl=%g", m.Size, m.TTL())
		}
	}
	_ = total
}

func TestUniformDeterministic(t *testing.T) {
	run := func() int {
		w, runner := sinkWorld(5)
		u := &Uniform{MinInterval: 5, MaxInterval: 10, Size: 100, TTL: 1e6, Start: 0, Stop: 200, Rng: xrand.New(9)}
		u.Install(w)
		runner.Run(300)
		return w.Metrics.Generated()
	}
	if run() != run() {
		t.Fatal("same-seed traffic diverged")
	}
}

func TestUniformValidation(t *testing.T) {
	w, _ := sinkWorld(2)
	for name, u := range map[string]*Uniform{
		"nil rng":      {MinInterval: 1, MaxInterval: 2},
		"bad interval": {MinInterval: 5, MaxInterval: 2, Rng: xrand.New(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			u.Install(w)
		}()
	}
}

func TestScriptCreatesExactMessages(t *testing.T) {
	w, runner := sinkWorld(4)
	s := &Script{Items: []Item{
		{At: 5, From: 0, To: 1, Size: 100, TTL: 50},
		{At: 2, From: 2, To: 3, Size: 200, TTL: 60},
	}}
	s.Install(w)
	runner.Run(10)
	if w.Metrics.Generated() != 2 {
		t.Fatalf("generated = %d, want 2", w.Metrics.Generated())
	}
	if !w.Node(0).Buf.Has(2) && !w.Node(0).Buf.Has(1) {
		// Message ids are assigned in firing (time) order: the t=2 item
		// gets id 1 at node 2, the t=5 item id 2 at node 0.
		t.Error("script messages missing")
	}
	if w.Node(2).Buf.Len() != 1 || w.Node(0).Buf.Len() != 1 {
		t.Errorf("buffers: node2=%d node0=%d", w.Node(2).Buf.Len(), w.Node(0).Buf.Len())
	}
}
