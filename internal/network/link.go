package network

import (
	"fmt"

	"repro/internal/sim"
)

// Link is an active contact between two nodes. It carries at most one
// transfer at a time at the configured bandwidth (half-duplex shared
// medium, as in ONE); senders alternate when both have traffic.
type Link struct {
	a, b  *Node // a.ID < b.ID
	since float64

	cur  *transfer
	ev   *sim.Event
	turn int  // 0: a sends next, 1: b sends next
	gone bool // torn down (contactDown); linkList compaction flag
}

type transfer struct {
	plan     *Plan
	from, to *Node
}

func (l *Link) other(n *Node) *Node {
	if n == l.a {
		return l.b
	}
	return l.a
}

// Busy reports whether a transfer is in flight.
func (l *Link) Busy() bool { return l.cur != nil }

// Since returns the contact establishment time.
func (l *Link) Since() float64 { return l.since }

// pump starts the next transfer if the link is idle, polling the two
// routers in alternating order for fairness.
func (l *Link) pump(w *World, t float64) {
	for l.cur == nil {
		var plan *Plan
		var from *Node
		first, second := l.a, l.b
		if l.turn == 1 {
			first, second = l.b, l.a
		}
		if p := first.Router.NextTransfer(t, l.other(first)); p != nil {
			plan, from = p, first
			l.turn ^= 1
		} else if p := second.Router.NextTransfer(t, l.other(second)); p != nil {
			plan, from = p, second
		}
		if plan == nil {
			return // both drained; wait for a wake
		}
		l.start(w, t, plan, from)
		return
	}
}

// start validates plan and schedules its completion event.
func (l *Link) start(w *World, t float64, plan *Plan, from *Node) {
	to := l.other(from)
	c := from.Copy(plan.Msg.ID)
	if c == nil {
		panic(fmt.Sprintf("network: node %d planned transfer of message %d it does not hold", from.ID, plan.Msg.ID))
	}
	if plan.Give < 1 {
		panic(fmt.Sprintf("network: plan gives %d replicas", plan.Give))
	}
	if to.HasCopy(plan.Msg.ID) {
		panic(fmt.Sprintf("network: node %d planned transfer of message %d to node %d which already holds it", from.ID, plan.Msg.ID, to.ID))
	}
	if plan.Msg.To == to.ID && to.DeliveredHere(plan.Msg.ID) {
		panic(fmt.Sprintf("network: node %d planned re-delivery of message %d to node %d", from.ID, plan.Msg.ID, to.ID))
	}
	l.cur = &transfer{plan: plan, from: from, to: to}
	dur := float64(plan.Msg.Size) / w.cfg.Bandwidth
	l.ev = w.runner.Events.Schedule(t+dur, func(now float64) {
		l.ev = nil
		w.completeTransfer(l, now)
	})
}

// abort cancels the in-flight transfer (contact lost).
func (l *Link) abort(w *World) {
	if l.cur == nil {
		return
	}
	w.runner.Events.Cancel(l.ev)
	l.ev = nil
	l.cur = nil
	w.Metrics.TransferAborted()
}
