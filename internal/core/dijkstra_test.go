package core

import (
	"math"
	"testing"
)

// refHeap is the reference queue of the radix-queue fuzz target: a binary
// min-heap of dijItems ordered by distance, ties by lowest id — the queue
// the kernel ran on before the radix queue.
type refHeap []dijItem

func refLess(a, b dijItem) bool { return a.d < b.d || (a.d == b.d && a.id < b.id) }

func (h *refHeap) push(it dijItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !refLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *refHeap) pop() dijItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && refLess(q[l], q[small]) {
			small = l
		}
		if r < n && refLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// live drops the stale entries (above their vertex's distance) from the
// top of h and reports whether a live one remains there.
func (h *refHeap) live(dist []float64) bool {
	for len(*h) > 0 && (*h)[0].d > dist[(*h)[0].id] {
		h.pop()
	}
	return len(*h) > 0
}

// queueSteps are the distance increments of the fuzz scripts' pushes over
// the last pop: ties, the smallest step, and gaps from tiny to
// overflowing.
var queueSteps = []float64{0, 0, math.SmallestNonzeroFloat64, 1e-9, 0.5, 1, 3, 1000, 1e6, 1e300}

// FuzzDijkstraQueue runs push/pop scripts over the radix queue and checks
// every pop and minimum against the reference binary heap, used as the
// kernel uses them: keys never below the last pop or reported minimum (the
// kernel pushes only the edges of the vertex it just popped), a push only
// when it improves its vertex's distance, and so entries stale once their
// vertex improves again (the radix queue drops them as it refills, the
// reference skips them at the top). Now and then the queue is drained
// into a list and rebuilt from it, as a paused run is. Ids collide, so one
// vertex carries several entries and equal distances tie on id.
func FuzzDijkstraQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 9, 9, 0, 17, 0, 33, 9, 9, 9, 9})
	f.Add([]byte{1, 3, 1, 5, 1, 7, 2, 1, 2, 3, 9, 4, 9, 9, 1, 3, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{b: data}
		const ids = 8
		dist := make([]float64, ids)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		var q radixQueue
		var ref refHeap
		floor := 0.0 // the last pop or reported minimum

		for step := 0; src.i < len(src.b); step++ {
			switch op := src.Intn(10); {
			case op < 6: // push
				it := dijItem{d: floor + queueSteps[src.Intn(len(queueSteps))], id: int32(src.Intn(ids))}
				if it.d < dist[it.id] { // Relax queues improvements only
					dist[it.id] = it.d
					q.push(it)
					ref.push(it)
				}
			case op < 8: // pop, the kernel's Next
				if !ref.live(dist) {
					if _, ok := q.min(dist); ok {
						t.Fatalf("step %d: radix queue holds a live entry, reference none", step)
					}
					continue
				}
				want := ref.pop()
				var got dijItem
				for {
					if _, ok := q.min(dist); !ok {
						t.Fatalf("step %d: radix queue empty, reference pops %+v", step, want)
					}
					if got = q.pop(); got.d <= dist[got.id] {
						break
					}
				}
				if got != want {
					t.Fatalf("step %d: radix queue pops %+v, reference %+v", step, got, want)
				}
				floor = got.d
			case op == 8: // minimum
				m, ok := q.min(dist)
				if ok != ref.live(dist) || ok && m != ref[0].d {
					t.Fatalf("step %d: radix minimum %v,%v, reference %v", step, m, ok, ref)
				}
				if ok {
					floor = m
				}
			default: // drain and rebuild, as release and resume do
				items := q.drain(nil)
				var back radixQueue
				back.last = q.last
				for _, it := range items {
					back.push(it)
				}
				q = back
			}
		}
	})
}
