// Package sim provides the simulation clock, the scheduled-event queue and
// the deterministic tick runner that drive a DTN scenario.
//
// The simulator is time-stepped (like the ONE simulator the paper used):
// node movement and contact detection advance once per tick, while message
// generation, transfer completions and other timed actions are discrete
// events processed in timestamp order at the start of each tick. Events at
// equal timestamps fire in insertion order, which keeps runs bit-for-bit
// deterministic.
package sim

import (
	"context"
	"math"

	"repro/internal/obs"
)

// Event is a callback scheduled to fire at a simulated time.
//
// A handle returned by Schedule is valid until the event fires or is
// cancelled; after that the queue may recycle the Event for a later
// Schedule, so holders must drop their reference (Link does this by
// nilling its field before running the completion).
type Event struct {
	At   float64
	Fire func(t float64)

	seq   int64 // insertion order for stable ties
	index int   // heap index, -1 once popped/cancelled
}

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == -2 }

// eventHeap is a binary min-heap ordered by (At, seq), a total order, so
// pops come out in one sequence whatever the sift path. Every move keeps
// Event.index current for Cancel.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// up moves entry j towards the root until its parent is not greater.
func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down moves entry i0 towards the leaves of h[:n] until no child is
// smaller, and reports whether it moved.
func (h eventHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

// remove takes out entry i and returns it with index -1.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	if n != i {
		old.swap(i, n)
		if !old.down(i, n) {
			old.up(i)
		}
	}
	e := old[n]
	old[n] = nil
	e.index = -1
	*h = old[:n]
	return e
}

// Queue is a deterministic future-event list. Fired events are recycled
// through a freelist, so steady-state scheduling (one transfer completion
// per contact, one generation event per message, ...) allocates nothing.
type Queue struct {
	h    eventHeap
	seq  int64
	free []*Event
}

// NewQueue returns an empty event queue.
func NewQueue() *Queue { return &Queue{} }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Schedule enqueues fire to run at time at and returns a handle that can be
// passed to Cancel. The handle must not be used after the event fires.
func (q *Queue) Schedule(at float64, fire func(t float64)) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Event{}
	}
	q.seq++
	*e = Event{At: at, Fire: fire, seq: q.seq}
	q.h.push(e)
	return e
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	q.h.remove(e.index)
	e.index = -2
}

// NextAt returns the timestamp of the earliest pending event, or +Inf when
// the queue is empty.
func (q *Queue) NextAt() float64 {
	if len(q.h) == 0 {
		return math.Inf(1)
	}
	return q.h[0].At
}

// RunUntil fires every event with timestamp <= t in order. Events scheduled
// during processing are honoured if they also fall at or before t.
func (q *Queue) RunUntil(t float64) {
	for len(q.h) > 0 && q.h[0].At <= t {
		e := q.h.remove(0)
		e.Fire(e.At)
		// Recycle after the callback returns: the callback may still read
		// the event (and anything it schedules pulls from the freelist
		// first, never this event). Cancelled events are NOT recycled so
		// their handles keep answering Cancelled() truthfully.
		e.Fire = nil
		q.free = append(q.free, e)
	}
}

// Clock tracks simulated time.
type Clock struct {
	now float64
}

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// advance is used by Runner; external code never moves the clock.
func (c *Clock) advance(t float64) { c.now = t }

// Ticker is anything that advances once per simulation tick.
type Ticker interface {
	// Tick is called with the new simulation time after events at or
	// before t have fired.
	Tick(t float64)
}

// Runner drives a scenario: it alternates event processing and tick
// callbacks at a fixed interval until the end time.
type Runner struct {
	Clock  Clock
	Events *Queue
	Tick   float64 // tick interval in seconds, must be > 0
	// Prof, when non-nil, books the event-queue drain between ticks
	// under obs.PhaseEvents. Tickers that profile themselves (the
	// network world) share the same profiler. Profiling observes wall
	// time only; the simulation is bit-identical with or without it.
	Prof    *obs.EngineProf
	tickers []Ticker
}

// NewRunner returns a runner with the given tick interval.
func NewRunner(tick float64) *Runner {
	if tick <= 0 {
		panic("sim: tick interval must be positive")
	}
	return &Runner{Events: NewQueue(), Tick: tick}
}

// AddTicker registers t to advance every tick, in registration order.
func (r *Runner) AddTicker(t Ticker) { r.tickers = append(r.tickers, t) }

// Now returns the current simulated time.
func (r *Runner) Now() float64 { return r.Clock.Now() }

// Run advances the simulation until time end (inclusive of events at end).
// It may be called repeatedly to extend a run.
func (r *Runner) Run(end float64) {
	r.RunProgress(end, 0, nil)
}

// RunProgress is Run with a progress hook: after every `every` ticks (and
// once more on completion) hook is called with the current simulated time.
// every <= 0 or a nil hook disables reporting. The tick loop is the same
// code path as Run — identical floating-point time sequence, identical
// results — so callers can stream live progress from a run that stays
// bit-identical to an unobserved one.
func (r *Runner) RunProgress(end float64, every int, hook func(t float64)) {
	r.RunContext(nil, end, every, hook)
}

// RunContext is RunProgress with cooperative cancellation: the context is
// polled after every tick and the run stops early with ctx.Err() once it
// is cancelled — a cancelled simulation wastes at most one tick of work.
// A nil or never-cancelled context ticks the exact same floating-point
// time sequence as Run — cancellation points only observe state, so a
// run that completes is bit-identical to an unobserved one. The final
// hook call is skipped on early stop: the run did not reach a reportable
// end state.
func (r *Runner) RunContext(ctx context.Context, end float64, every int, hook func(t float64)) error {
	ticks := 0
	for r.Clock.Now() < end {
		next := r.Clock.Now() + r.Tick
		if next > end {
			next = end
		}
		st := r.Prof.Start()
		r.Events.RunUntil(next)
		r.Prof.Lap(obs.PhaseEvents, st)
		r.Clock.advance(next)
		for _, tk := range r.tickers {
			tk.Tick(next)
		}
		if ticks++; every > 0 && hook != nil && ticks%every == 0 {
			hook(next)
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	if hook != nil {
		hook(r.Clock.Now())
	}
	return nil
}
