package trace_test

import (
	"reflect"
	"testing"

	"repro/internal/buffer"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chainScript is a hand-built script on a 0.5 s tick: the chain 0–1 over
// [1 s, 4 s), 1–2 over [5 s, 8 s), 2–3 over [9 s, 12 s). Only a protocol
// that relays can carry a message from 0 to 3 across it.
func chainScript() *trace.Script {
	return &trace.Script{N: 4, Events: []trace.Event{
		{Tick: 2, Up: true, A: 0, B: 1},
		{Tick: 8, A: 0, B: 1},
		{Tick: 10, Up: true, A: 1, B: 2},
		{Tick: 16, A: 1, B: 2},
		{Tick: 18, Up: true, A: 2, B: 3},
		{Tick: 24, A: 2, B: 3},
	}}
}

// replayChain drives a world of stationary nodes running mk's router
// from the chain script, with one message 0→3 created at t=0. It returns
// the world's summary and its contact transitions re-recorded through
// OnContact.
func replayChain(mk func() network.Router) (metrics.Summary, *trace.Script) {
	sc := chainScript()
	runner := sim.NewRunner(0.5)
	w := network.New(network.Config{Range: 10, Bandwidth: 1e6}, runner)
	w.SetContactScript(sc.Events)
	rec := trace.NewScriptRecorder(sc.N)
	w.OnContact(rec.Note)
	for i := 0; i < sc.N; i++ {
		w.AddNode(&mobility.Stationary{}, buffer.New(0), mk())
	}
	w.Start()
	w.CreateMessage(0, 0, 3, 1000, 1e6)
	runner.Run(15)
	return w.Metrics.Summary(), rec.Script()
}

// TestReplayReproducesContacts: a world driven by a hand-built script
// fires exactly the script's transitions, at the scripted ticks and in
// the scripted order.
func TestReplayReproducesContacts(t *testing.T) {
	sum, got := replayChain(func() network.Router { return routing.NewEpidemic() })
	if want := chainScript(); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-recorded script = %+v, want %+v", got, want)
	}
	if sum.Contacts != 3 {
		t.Errorf("contacts = %d, want 3", sum.Contacts)
	}
}

// TestReplayPairedProtocolComparison runs two protocols on one script:
// both see the identical contacts, and only the relaying one delivers
// along the chain.
func TestReplayPairedProtocolComparison(t *testing.T) {
	epi, epiScript := replayChain(func() network.Router { return routing.NewEpidemic() })
	dir, dirScript := replayChain(func() network.Router { return routing.NewDirect() })
	if epi.Contacts != dir.Contacts || !reflect.DeepEqual(epiScript, dirScript) {
		t.Errorf("contacts differ across protocols: %d vs %d", epi.Contacts, dir.Contacts)
	}
	if epi.Delivered != 1 {
		t.Errorf("epidemic on the chain script delivered %d, want 1", epi.Delivered)
	}
	if dir.Delivered != 0 {
		t.Errorf("direct delivery on the chain script delivered %d, want 0", dir.Delivered)
	}
}
