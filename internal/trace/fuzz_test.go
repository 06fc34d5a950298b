package trace_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
)

// FuzzDecodeScript: trace blobs arrive from peers and disk, so decoding
// must never panic on any input, and a blob that decodes must be
// canonical — it re-encodes to the identical bytes, the property content
// addressing rests on. Seeds: a recorded quick-preset world plus every
// corrupt case the wire contract names.
func FuzzDecodeScript(f *testing.F) {
	s := experiment.Quick()
	s.Nodes = 20
	s.Duration = 300
	s.Seed = 1
	recorded, _, err := experiment.RecordTrace(context.Background(), s, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded.Encode())
	for _, data := range trace.CorruptScripts() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := trace.DecodeScript(data)
		if err != nil {
			return
		}
		if got := sc.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("decoded blob re-encodes differently:\n in %x\nout %x", data, got)
		}
	})
}
