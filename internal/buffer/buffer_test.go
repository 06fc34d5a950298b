package buffer

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/msg"
	"repro/internal/xrand"
)

func mkCopy(id, size int, created, received float64) *msg.Copy {
	m := &msg.Message{ID: id, From: 0, To: 1, Size: size, Created: created, Expire: created + 1200}
	c := msg.NewCopy(m, 1)
	c.ReceivedAt = received
	return c
}

func TestAddGetRemove(t *testing.T) {
	b := New(100)
	c := mkCopy(1, 40, 0, 0)
	if dropped, ok := b.Add(0, c); !ok || dropped != nil {
		t.Fatalf("Add = %v, %v", dropped, ok)
	}
	if !b.Has(1) || b.Get(1) != c {
		t.Fatal("lookup failed")
	}
	if b.Used() != 40 || b.Free() != 60 || b.Len() != 1 {
		t.Fatalf("accounting: used=%d free=%d len=%d", b.Used(), b.Free(), b.Len())
	}
	if got := b.Remove(1); got != c {
		t.Fatal("Remove returned wrong copy")
	}
	if b.Has(1) || b.Used() != 0 {
		t.Fatal("remove did not clear state")
	}
	if b.Remove(99) != nil {
		t.Error("Remove of absent id should be nil")
	}
}

func TestEvictionFIFO(t *testing.T) {
	b := New(100) // default DropOldestReceived
	b.Add(0, mkCopy(1, 40, 0, 5))
	b.Add(0, mkCopy(2, 40, 0, 1)) // oldest received
	dropped, ok := b.Add(0, mkCopy(3, 40, 0, 9))
	if !ok || len(dropped) != 1 || dropped[0].M.ID != 2 {
		t.Fatalf("dropped = %v, ok=%v; want message 2", dropped, ok)
	}
	if !b.Has(1) || !b.Has(3) || b.Has(2) {
		t.Fatal("wrong survivor set")
	}
}

func TestEvictionMultipleVictims(t *testing.T) {
	b := New(100)
	b.Add(0, mkCopy(1, 30, 0, 1))
	b.Add(0, mkCopy(2, 30, 0, 2))
	b.Add(0, mkCopy(3, 30, 0, 3))
	// Used 90 of 100; a 70-byte arrival needs two evictions (90→60→30).
	dropped, ok := b.Add(0, mkCopy(4, 70, 0, 4))
	if !ok || len(dropped) != 2 {
		t.Fatalf("dropped %d copies, want 2", len(dropped))
	}
	if dropped[0].M.ID != 1 || dropped[1].M.ID != 2 {
		t.Fatalf("dropped = %v, %v; want 1, 2", dropped[0].M.ID, dropped[1].M.ID)
	}
}

func TestRefuseOversize(t *testing.T) {
	b := New(50)
	b.Add(0, mkCopy(1, 40, 0, 0))
	if _, ok := b.Add(0, mkCopy(2, 60, 0, 0)); ok {
		t.Fatal("oversize message accepted")
	}
	if !b.Has(1) {
		t.Fatal("refusal evicted existing content")
	}
}

func TestUnboundedBuffer(t *testing.T) {
	b := New(0)
	for i := 0; i < 100; i++ {
		if _, ok := b.Add(0, mkCopy(i, 1000, 0, 0)); !ok {
			t.Fatal("unbounded buffer refused")
		}
	}
	if b.Free() >= 0 {
		t.Error("unbounded Free should be negative")
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	b := New(0)
	b.Add(0, mkCopy(1, 10, 0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Add(0, mkCopy(1, 10, 0, 0))
}

func TestDropExpired(t *testing.T) {
	b := New(0)
	b.Add(0, mkCopy(1, 10, 0, 0))    // expires 1200
	b.Add(0, mkCopy(2, 10, 1000, 0)) // expires 2200
	b.Add(0, mkCopy(3, 10, 100, 0))  // expires 1300
	out := b.DropExpired(1250)
	if len(out) != 1 || out[0].M.ID != 1 {
		t.Fatalf("expired = %v", out)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
}

// TestNextExpiry pins NextExpiry as a lower bound on what DropExpired can
// drop: +Inf when empty, the heap top otherwise, and still the removed
// copy's time while its stale entry sits on top, until a sweep past that
// time pops it.
func TestNextExpiry(t *testing.T) {
	b := New(0)
	if got := b.NextExpiry(); !math.IsInf(got, 1) {
		t.Fatalf("empty buffer: NextExpiry = %g, want +Inf", got)
	}
	b.Add(0, mkCopy(1, 10, 0, 0))   // expires 1200
	b.Add(0, mkCopy(2, 10, 300, 0)) // expires 1500
	b.Add(0, mkCopy(3, 10, 100, 0)) // expires 1300
	if got := b.NextExpiry(); got != 1200 {
		t.Fatalf("NextExpiry = %g, want 1200", got)
	}
	// Removing copy 1 leaves its entry on top: stale, still the bound.
	b.Remove(1)
	if got := b.NextExpiry(); got != 1200 {
		t.Fatalf("stale top: NextExpiry = %g, want 1200", got)
	}
	// At t = 1200 nothing has expired (strict t > Expire), so the sweep
	// pops nothing and the bound holds.
	if out := b.DropExpired(1200); len(out) != 0 || b.NextExpiry() != 1200 {
		t.Fatalf("DropExpired(1200) = %d copies, NextExpiry %g; want 0, 1200", len(out), b.NextExpiry())
	}
	// Past 1200 the stale entry is discarded; 1300 is the next live one.
	if out := b.DropExpired(1250); len(out) != 0 {
		t.Fatalf("DropExpired(1250) dropped %d copies, want 0", len(out))
	}
	if got := b.NextExpiry(); got != 1300 {
		t.Fatalf("after popping the stale entry: NextExpiry = %g, want 1300", got)
	}
	if out := b.DropExpired(2000); len(out) != 2 {
		t.Fatalf("DropExpired(2000) dropped %d copies, want 2", len(out))
	}
	if got := b.NextExpiry(); !math.IsInf(got, 1) {
		t.Fatalf("drained buffer: NextExpiry = %g, want +Inf", got)
	}
}

func TestPolicies(t *testing.T) {
	copies := []*msg.Copy{
		mkCopy(1, 10, 50, 70),
		mkCopy(2, 10, 10, 90), // oldest created
		mkCopy(3, 10, 80, 60), // oldest received
	}
	if v := DropOldestReceived(0, copies); copies[v].M.ID != 3 {
		t.Errorf("DropOldestReceived chose %d", copies[v].M.ID)
	}
}

func TestInsertionOrderStable(t *testing.T) {
	b := New(0)
	for i := 0; i < 10; i++ {
		b.Add(0, mkCopy(i, 10, 0, 0))
	}
	b.Remove(3)
	b.Remove(7)
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	all := b.All()
	for i, c := range all {
		if c.M.ID != want[i] {
			t.Fatalf("order = %v", all)
		}
	}
	// Index map still consistent after compaction.
	for _, id := range want {
		if b.Get(id).M.ID != id {
			t.Fatalf("Get(%d) broken after removals", id)
		}
	}
}

// TestPropCapacityInvariant: under random add/remove sequences the used
// bytes never exceed capacity and always equal the sum of stored sizes.
func TestPropCapacityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		capacity := 100 + rng.Intn(400)
		b := New(capacity)
		id := 0
		for op := 0; op < 200; op++ {
			if rng.Bool(0.7) {
				id++
				b.Add(float64(op), mkCopy(id, 10+rng.Intn(120), float64(op), float64(op)))
			} else if b.Len() > 0 {
				b.Remove(b.All()[rng.Intn(b.Len())].M.ID)
			}
			sum := 0
			for _, c := range b.All() {
				sum += c.M.Size
			}
			if sum != b.Used() || b.Used() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// naiveDropExpired is the pre-heap reference implementation: a full scan
// of the copy list in insertion order. The heap-based DropExpired must
// remove exactly the same set and leave the identical surviving sequence.
func naiveDropExpired(b *Buffer, t float64) []*msg.Copy {
	var out []*msg.Copy
	for _, c := range append([]*msg.Copy(nil), b.All()...) {
		if c.M.Expired(t) {
			out = append(out, b.Remove(c.M.ID))
		}
	}
	return out
}

// TestDropExpiredHeapParity drives a heap buffer and a naive-sweep buffer
// through identical random Add/Remove/re-Add/DropExpired sequences and
// demands the same expired sets and surviving buffer contents — the pin
// for replacing the full-scan expiry sweep with the expiry-ordered heap.
func TestDropExpiredHeapParity(t *testing.T) {
	rng := xrand.New(99)
	heapB := New(0)
	naiveB := New(0)
	mk := func(id int, created float64) (*msg.Copy, *msg.Copy) {
		ttl := rng.Uniform(50, 500)
		m1 := &msg.Message{ID: id, From: 0, To: 1, Size: 10, Created: created, Expire: created + ttl}
		m2 := &msg.Message{ID: id, From: 0, To: 1, Size: 10, Created: created, Expire: created + ttl}
		return msg.NewCopy(m1, 1), msg.NewCopy(m2, 1)
	}
	// removed remembers (id -> expire) so re-adds keep the immutable
	// expiry, exercising duplicate heap entries.
	removed := map[int]float64{}
	now, nextID := 0.0, 0
	live := []int{}
	for step := 0; step < 3000; step++ {
		now += rng.Uniform(0, 20)
		switch op := rng.Intn(10); {
		case op < 5: // add a fresh message
			nextID++
			c1, c2 := mk(nextID, now)
			heapB.Add(now, c1)
			naiveB.Add(now, c2)
			live = append(live, nextID)
		case op < 7 && len(live) > 0: // remove a random live copy
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			hc := heapB.Remove(id)
			nc := naiveB.Remove(id)
			if (hc == nil) != (nc == nil) {
				t.Fatalf("step %d: Remove(%d) presence mismatch", step, id)
			}
			if hc != nil {
				removed[id] = hc.M.Expire
			}
		case op < 8 && len(removed) > 0: // re-add a removed id (same expiry)
			for id, exp := range removed {
				if exp <= now {
					continue // would re-add an already-expired message
				}
				m1 := &msg.Message{ID: id, From: 0, To: 1, Size: 10, Created: exp - 100, Expire: exp}
				m2 := *m1
				heapB.Add(now, msg.NewCopy(m1, 1))
				naiveB.Add(now, msg.NewCopy(&m2, 1))
				live = append(live, id)
				delete(removed, id)
				break
			}
		default: // expiry sweep
			h := heapB.DropExpired(now)
			n := naiveDropExpired(naiveB, now)
			if len(h) != len(n) {
				t.Fatalf("step %d t=%g: heap dropped %d, naive %d", step, now, len(h), len(n))
			}
			hs := map[int]bool{}
			for _, c := range h {
				hs[c.M.ID] = true
			}
			for _, c := range n {
				if !hs[c.M.ID] {
					t.Fatalf("step %d: naive dropped %d, heap did not", step, c.M.ID)
				}
			}
			for i := 0; i < len(live); {
				if hs[live[i]] {
					live = append(live[:i], live[i+1:]...)
				} else {
					i++
				}
			}
		}
		if heapB.Len() != naiveB.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, heapB.Len(), naiveB.Len())
		}
	}
	// Surviving sequences must match element-wise (insertion order).
	ha, na := heapB.All(), naiveB.All()
	for i := range ha {
		if ha[i].M.ID != na[i].M.ID {
			t.Fatalf("surviving order diverged at %d: %d vs %d", i, ha[i].M.ID, na[i].M.ID)
		}
	}
	// Drain everything far in the future; both must agree one last time.
	now += 1e6
	if h, n := heapB.DropExpired(now), naiveDropExpired(naiveB, now); len(h) != len(n) {
		t.Fatalf("final drain: %d vs %d", len(h), len(n))
	}
	if heapB.Len() != 0 {
		t.Fatalf("drain left %d copies", heapB.Len())
	}
}
