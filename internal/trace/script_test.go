package trace

import (
	"bytes"
	"strings"
	"testing"
)

func sampleScript() *Script {
	return &Script{N: 40, Events: []Event{
		{Tick: 3, Up: true, A: 0, B: 7},
		{Tick: 3, Up: true, A: 2, B: 39},
		{Tick: 19, Up: false, A: 0, B: 7},
		{Tick: 200, Up: true, A: 11, B: 12},
		{Tick: 100000, Up: false, A: 11, B: 12},
	}}
}

// TestScriptRoundTrip pins encode → decode as the identity, including the
// empty script.
func TestScriptRoundTrip(t *testing.T) {
	for _, s := range []*Script{sampleScript(), {N: 5}} {
		got, err := DecodeScript(s.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.N != s.N || len(got.Events) != len(s.Events) {
			t.Fatalf("round trip changed shape: %+v vs %+v", got, s)
		}
		for i := range s.Events {
			if got.Events[i] != s.Events[i] {
				t.Errorf("event %d: got %+v want %+v", i, got.Events[i], s.Events[i])
			}
		}
	}
}

// TestScriptEncodeDeterministic pins that identical scripts encode to
// identical bytes — the property content addressing rests on.
func TestScriptEncodeDeterministic(t *testing.T) {
	if !bytes.Equal(sampleScript().Encode(), sampleScript().Encode()) {
		t.Fatal("two encodings of the same script differ")
	}
}

// CorruptScripts returns every class of damage the wire contract names —
// truncation at each region, bad magic, bad flag, bad pair, trailing
// bytes, an implausible event count, a non-minimal varint, an up of an
// open pair, a down of a closed one — keyed by name. Each must fail to decode; FuzzDecodeScript seeds from them too.
func CorruptScripts() map[string][]byte {
	good := sampleScript().Encode()
	cases := map[string][]byte{
		"empty":            {},
		"short magic":      good[:4],
		"bad magic":        append([]byte("DTNTRC9\n"), good[8:]...),
		"no header":        good[:8],
		"truncated events": good[:len(good)-3],
		"trailing bytes":   append(append([]byte{}, good...), 0),
	}
	// Flip the first event's flag byte (offset: 8 magic + 1 n + 1 count +
	// 1 dtick for this sample) to an unknown value.
	badFlag := append([]byte{}, good...)
	badFlag[11] = 7
	cases["bad flag"] = badFlag
	// A pair with a >= b: encode by hand.
	badPair := (&Script{N: 10, Events: []Event{{Tick: 1, Up: true, A: 5, B: 5}}}).Encode()
	cases["pair a==b"] = badPair
	outOfRange := (&Script{N: 10, Events: []Event{{Tick: 1, Up: true, A: 5, B: 10}}}).Encode()
	cases["pair b==n"] = outOfRange
	// The node count 40 spelled in two bytes instead of one.
	cases["non-minimal varint"] = append(append([]byte(scriptMagic), 0x80|40, 0), good[9:]...)
	cases["implausible count"] = implausibleCount()
	// Well-formed but inconsistent: a second up of a pair already up (a
	// flipped pair id can produce one), and a down of a pair never up.
	cases["up of open pair"] = (&Script{N: 10, Events: []Event{
		{Tick: 1, Up: true, A: 0, B: 1}, {Tick: 2, Up: true, A: 0, B: 1}, {Tick: 3, A: 0, B: 1},
	}}).Encode()
	cases["down of closed pair"] = (&Script{N: 10, Events: []Event{
		{Tick: 1, Up: true, A: 0, B: 1}, {Tick: 2, A: 0, B: 1}, {Tick: 3, A: 0, B: 1},
	}}).Encode()
	return cases
}

// implausibleCount is a header claiming one event per remaining byte:
// every event takes at least 4 bytes, so the count cannot be honest.
func implausibleCount() []byte {
	rest := make([]byte, 40)
	return append(append([]byte(scriptMagic), 10, byte(len(rest))), rest...)
}

// TestScriptDecodeCorrupt requires a decode error for every damage class.
// Callers map any error to a cache miss, so these are the lines that keep
// a torn blob from replaying garbage.
func TestScriptDecodeCorrupt(t *testing.T) {
	for name, data := range CorruptScripts() {
		if _, err := DecodeScript(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeScript(sampleScript().Encode()); err != nil {
		t.Fatalf("control: good blob failed to decode: %v", err)
	}
}

// TestScriptDecodeImplausibleCount: a header whose event count exceeds a
// quarter of the remaining bytes is refused before anything is allocated
// for it — a peer blob of up to 64 MiB cannot force a pre-allocation of
// its claimed event count.
func TestScriptDecodeImplausibleCount(t *testing.T) {
	_, err := DecodeScript(implausibleCount())
	if err == nil || !strings.Contains(err.Error(), "implausible header") {
		t.Fatalf("count == len(rest): err %v, want implausible header", err)
	}
}
