package network_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/experiment"
	"repro/internal/msg"
	"repro/internal/network"
	"repro/internal/trace"
)

// idle routes nothing, as the bare worlds RecordTrace runs do.
type idle struct{}

func (idle) Init(*network.Node, *network.World)                {}
func (idle) InitialReplicas(*msg.Message) int                  { return 1 }
func (idle) ContactUp(float64, *network.Node)                  {}
func (idle) ContactDown(float64, *network.Node)                {}
func (idle) NextTransfer(float64, *network.Node) *network.Plan { return nil }
func (idle) Created(float64, *msg.Copy)                        {}
func (idle) Received(float64, *msg.Copy, *network.Node)        {}
func (idle) Sent(float64, *network.Plan, *network.Node, bool)  {}

// TestRecordTraceCellInvariant: the grid cell is only a filter, so the
// contact script RecordTrace encodes for the 240-node paper world at the
// cell World.cellSize derives must equal, byte for byte, the one a world
// forced to cells of one radio range records.
func TestRecordTraceCellInvariant(t *testing.T) {
	s := experiment.Default()
	s.Nodes = 240
	s.Duration = 1000
	for _, seed := range []int64{1, 2} {
		s.Seed = seed
		derived, _, err := experiment.RecordTrace(context.Background(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, runner := experiment.BuildBare(s, func(int) network.Router { return idle{} })
		if c := network.GridCell(w); c <= s.Range {
			t.Fatalf("seed %d: derived cell %g m, want it enlarged past the %g m range", seed, c, s.Range)
		}
		network.ForceGridCell(w, s.Range)
		rec := trace.NewScriptRecorder(s.Nodes)
		w.OnContact(rec.Note)
		runner.Run(s.Duration)
		got, want := derived.Encode(), rec.Script().Encode()
		if len(derived.Events) == 0 {
			t.Fatalf("seed %d: no contacts recorded", seed)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: script at the derived cell (%d events, %d B) differs from c = R (%d events, %d B)",
				seed, len(derived.Events), len(got), len(rec.Script().Events), len(want))
		}
	}
}
