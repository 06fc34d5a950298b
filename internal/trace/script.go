// Package trace holds the repo's one contact-trace representation: the
// binary DTNTRC1 contact script, the exact up/down event sequence of a
// recorded world, tick-indexed and in engine firing order, so a replayed
// world can drive links straight from the script and reproduce the
// recording bit-for-bit (within-tick ordering included — downs in
// link-list order before ups in ascending pair order, exactly as the live
// detector fires them). Scripts are recorded from live worlds, built by
// hand (examples, tests) and stored content-addressed in the result store.
//
// Wire format (all integers unsigned varints unless noted):
//
//	magic   "DTNTRC1\n"          8 bytes
//	n       node count
//	events  event count
//	per event:
//	  dtick   tick delta vs the previous event (first event: absolute)
//	  flag    1 byte: 0 = contact down, 1 = contact up
//	  a, b    node ids, a < b
//
// Decoding is strict: any truncation, bad magic, out-of-range id,
// unknown flag or non-minimal varint is an error, so a blob that decodes
// re-encodes to the identical bytes. Events must also be consistent: an
// up for a pair that is already up, or a down for a pair that is not, is
// an error. Callers treat a decode error as a cache miss and re-record,
// so a corrupt or torn blob can never replay garbage.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// scriptMagic identifies (and versions) the binary script format.
const scriptMagic = "DTNTRC1\n"

// Event is one scripted contact transition at a tick index. Tick counts
// world ticks from 1 (the engine increments before detection), A < B.
type Event struct {
	Tick uint64
	Up   bool
	A, B int32
}

// Script is the complete contact event log of one recorded world.
type Script struct {
	N      int
	Events []Event
}

// Encode serialises the script to the binary wire format.
func (s *Script) Encode() []byte {
	buf := make([]byte, 0, len(scriptMagic)+2*binary.MaxVarintLen64+len(s.Events)*(2*binary.MaxVarintLen32+binary.MaxVarintLen64+1))
	buf = append(buf, scriptMagic...)
	buf = binary.AppendUvarint(buf, uint64(s.N))
	buf = binary.AppendUvarint(buf, uint64(len(s.Events)))
	prev := uint64(0)
	for _, e := range s.Events {
		buf = binary.AppendUvarint(buf, e.Tick-prev)
		prev = e.Tick
		if e.Up {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(e.A))
		buf = binary.AppendUvarint(buf, uint64(e.B))
	}
	return buf
}

// errCorrupt is wrapped by every DecodeScript failure.
var errCorrupt = errors.New("corrupt contact script")

// errVarint is built once: a per-varint fmt.Errorf would push the decode
// loop's varint reader past the inlining budget.
var errVarint = fmt.Errorf("trace: %w: truncated or non-minimal varint", errCorrupt)

// DecodeScript parses a binary script, validating structure and every
// event. Any deviation from the wire contract is an error.
func DecodeScript(data []byte) (*Script, error) {
	if len(data) < len(scriptMagic) || string(data[:len(scriptMagic)]) != scriptMagic {
		return nil, fmt.Errorf("trace: %w: bad magic", errCorrupt)
	}
	data = data[len(scriptMagic):]
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 || n > 1 && data[n-1] == 0 { // Encode writes minimal varints only
			return 0, errVarint
		}
		data = data[n:]
		return v, nil
	}
	n, err := uv()
	if err != nil {
		return nil, err
	}
	count, err := uv()
	if err != nil {
		return nil, err
	}
	if n > 1<<31 || count > uint64(len(data)/4) { // every event is >= 4 bytes: bounds the pre-allocation
		return nil, fmt.Errorf("trace: %w: implausible header", errCorrupt)
	}
	s := &Script{N: int(n), Events: make([]Event, 0, count)}
	open := make(map[uint64]struct{}) // pairs currently up, keyed a<<32|b
	tick := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, err := uv()
		if err != nil {
			return nil, err
		}
		tick += d
		if len(data) == 0 {
			return nil, fmt.Errorf("trace: %w: truncated event", errCorrupt)
		}
		flag := data[0]
		data = data[1:]
		if flag > 1 {
			return nil, fmt.Errorf("trace: %w: bad event flag %d", errCorrupt, flag)
		}
		a, err := uv()
		if err != nil {
			return nil, err
		}
		b, err := uv()
		if err != nil {
			return nil, err
		}
		if a >= b || b >= n {
			return nil, fmt.Errorf("trace: %w: bad pair (%d,%d) of %d nodes", errCorrupt, a, b, n)
		}
		// One map operation per event: an up must grow the open set and
		// a down must shrink it, else the pair was already up / not up.
		was := len(open)
		if flag == 1 {
			open[a<<32|b] = struct{}{}
		} else {
			delete(open, a<<32|b)
		}
		if len(open) == was {
			state := "down"
			if flag == 1 {
				state = "up"
			}
			return nil, fmt.Errorf("trace: %w: pair (%d,%d) already %s at tick %d", errCorrupt, a, b, state, tick)
		}
		s.Events = append(s.Events, Event{Tick: tick, Up: flag == 1, A: int32(a), B: int32(b)})
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("trace: %w: %d trailing bytes", errCorrupt, len(data))
	}
	return s, nil
}

// ScriptRecorder accumulates contact events in engine firing order; attach
// its Note method as a world's contact hook.
type ScriptRecorder struct {
	n      int
	events []Event
}

// NewScriptRecorder returns a recorder for an n-node world.
func NewScriptRecorder(n int) *ScriptRecorder {
	return &ScriptRecorder{n: n}
}

// Note records one contact transition (network.World OnContact signature).
func (r *ScriptRecorder) Note(tick uint64, up bool, a, b int32) {
	r.events = append(r.events, Event{Tick: tick, Up: up, A: a, B: b})
}

// Script returns the recorded script. The recorder may keep recording;
// the returned script snapshots the events seen so far.
func (r *ScriptRecorder) Script() *Script {
	return &Script{N: r.n, Events: r.events}
}
