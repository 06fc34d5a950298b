package network

import (
	"fmt"

	"repro/internal/sim"
)

// Link is an active contact between two nodes. It carries at most one
// transfer at a time at the configured bandwidth (half-duplex shared
// medium, as in ONE); senders alternate when both have traffic.
//
// The world recycles links (World.freeLinks): a torn-down link is reused
// by a later contactUp, so nothing may keep a *Link past its contact.
type Link struct {
	a, b *Node // a.ID < b.ID

	cur  transfer // in flight when cur.plan != nil
	ev   *sim.Event
	done func(t float64) // completion callback, bound once per Link struct
	turn int             // 0: a sends next, 1: b sends next
	gone bool            // torn down (contactDown); linkList compaction flag
}

type transfer struct {
	plan     *Plan
	from, to *Node
}

// newLink allocates a link whose completion callback is bound for the
// struct's whole life, so neither a recycle nor a transfer allocates it.
func newLink(w *World) *Link {
	l := &Link{}
	l.done = func(now float64) {
		l.ev = nil
		w.completeTransfer(l, now)
	}
	return l
}

func (l *Link) other(n *Node) *Node {
	if n == l.a {
		return l.b
	}
	return l.a
}

// pump starts the next transfer if the link is idle and either side has
// one, polling the two routers in alternating order for fairness; a
// drained link waits for a wake.
func (l *Link) pump(w *World, t float64) {
	if l.cur.plan != nil {
		return
	}
	first, second := l.a, l.b
	if l.turn == 1 {
		first, second = l.b, l.a
	}
	if p := first.Router.NextTransfer(t, l.other(first)); p != nil {
		l.turn ^= 1
		l.start(w, t, p, first)
	} else if p := second.Router.NextTransfer(t, l.other(second)); p != nil {
		l.start(w, t, p, second)
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
	l.cur = transfer{plan: plan, from: from, to: to}
	dur := float64(plan.Msg.Size) / w.cfg.Bandwidth
	l.ev = w.runner.Events.Schedule(t+dur, l.done)
}

// abort cancels the in-flight transfer (contact lost).
func (l *Link) abort(w *World) {
	if l.cur.plan == nil {
		return
	}
	w.runner.Events.Cancel(l.ev)
	l.ev = nil
	l.cur = transfer{}
	w.Metrics.TransferAborted()
}
