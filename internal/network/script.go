package network

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Scripted (trace-replay) worlds: instead of moving nodes and detecting
// contacts geometrically, the world fires a contact script (trace.Event:
// at world tick Tick, counted from 1 like TickCount, the contact between
// A < B comes up or goes down). Mobility advance, grid maintenance and
// pair sweeps are skipped entirely — the per-tick cost reduces to the
// contacts that actually happen — while transfers, buffers, routers,
// traffic and metrics run through the exact same code as a live world.
// Because a recorded script stores events in engine firing order (downs
// before ups within a tick, ups in ascending pair order), a replayed
// world is bit-identical to the recording run for every quantity that
// does not read node positions.

// OnContact registers a contact observer fired on every contact
// transition (up and down), live or scripted, in the engine's
// deterministic firing order, which no shard count changes. Recorders
// use it to capture a world's contact script.
func (w *World) OnContact(f func(tick uint64, up bool, a, b int32)) {
	w.onContact = append(w.onContact, f)
}

// TickCount returns the number of ticks the world has executed.
func (w *World) TickCount() uint64 { return w.tickCount }

// SetContactScript switches the world to scripted replay before Start:
// ticks fire the given events instead of advancing movers and detecting
// contacts. Events must be tick-ordered, in engine firing order, and
// consistent (no up of a pair already up; trace.DecodeScript enforces
// this for stored blobs). For a recording, the world's node count and
// tick interval must match it; the script's content address guarantees
// that. Sharding is forced off — a scripted tick is too cheap to split —
// here, for every caller, so the world alone owns that rule.
func (w *World) SetContactScript(events []trace.Event) {
	if w.started {
		panic("network: SetContactScript after Start")
	}
	w.scripted = true
	w.script = events
	w.cfg.Shards = 0
}

// Scripted reports whether the world replays a contact script.
func (w *World) Scripted() bool { return w.scripted }

// tickScripted advances one scripted tick: fire the script's events for
// this tick in recorded order, then run the usual expiry sweep cadence.
// Positions are never read or written. A down finds its link through
// Node.links, so a scripted world keeps no linkList (only the live
// distance sweep reads it) and recycles each link at its contactDown.
func (w *World) tickScripted(t float64) {
	w.lastTick = t
	w.tickCount++
	st := w.prof.Start()
	for w.scriptPos < len(w.script) {
		e := w.script[w.scriptPos]
		if e.Tick > w.tickCount {
			break
		}
		w.scriptPos++
		if e.Up {
			w.contactUp(w.nodes[e.A], w.nodes[e.B], t)
			continue
		}
		if l := w.nodes[e.A].linkTo(w.nodes[e.B]); l != nil {
			w.contactDown(l, t)
		}
	}
	st = w.prof.Lap(obs.PhaseScript, st)
	if w.tickCount%uint64(w.cfg.ExpirySweepEvery) == 0 {
		w.sweepExpired(t)
		w.prof.Lap(obs.PhaseExpiry, st)
	}
	w.prof.TickDone()
}

// linkTo returns the node's active link to peer, or nil.
func (n *Node) linkTo(peer *Node) *Link {
	for _, l := range n.links {
		if l.other(n) == peer {
			return l
		}
	}
	return nil
}
