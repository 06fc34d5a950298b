// Package buffer implements the finite per-node message store with
// pluggable drop policies. The paper's scenario gives each node 1 MB for
// 25 KB messages; when an arriving copy does not fit, the policy selects
// victims until it does (or the arrival itself is refused).
package buffer

import (
	"fmt"
	"math"

	"repro/internal/msg"
)

// DropPolicy selects the next victim among the buffered copies when space
// is needed. It returns an index into copies, which is non-empty. Policies
// must be deterministic.
type DropPolicy func(t float64, copies []*msg.Copy) int

// DropOldestReceived evicts the copy held longest (FIFO) — the default, and
// ONE's default.
func DropOldestReceived(_ float64, copies []*msg.Copy) int {
	best := 0
	for i, c := range copies {
		if c.ReceivedAt < copies[best].ReceivedAt {
			best = i
		}
		_ = c
	}
	return best
}

// Buffer is a byte-bounded store of message copies with deterministic
// insertion-ordered iteration.
//
// Expiry is tracked in a lazy-deletion min-heap ordered by (expiry time,
// message id): every Add pushes an entry, removals leave their entries
// behind, and DropExpired pops only entries whose time has come — checking
// each against the live set. The periodic expiry sweep therefore costs
// O(1) when nothing expired (the common case: the engine sweeps every
// 10 ticks, messages live for a 20-minute TTL) instead of a
// full scan of every buffered copy, which profiles showed dominating the
// sweep at scale. Stale entries are self-cleaning: each is popped and
// discarded exactly once, when its expiry time passes.
type Buffer struct {
	capacity int
	used     int
	policy   DropPolicy
	byID     map[int]int // message id -> index in list
	list     []*msg.Copy
	expiry   []expEntry // min-heap on (at, id); may hold stale ids
}

// expEntry is one pending expiry: message id at absolute time at.
type expEntry struct {
	at float64
	id int
}

// New returns a buffer of the given byte capacity that drops the oldest
// received copy first (DropOldestReceived). capacity <= 0 means unbounded.
func New(capacity int) *Buffer {
	return &Buffer{capacity: capacity, policy: DropOldestReceived, byID: make(map[int]int)}
}

// SetPolicy replaces the drop policy (routers with protocol-specific drop
// orders, e.g. MaxProp, install theirs at Init).
func (b *Buffer) SetPolicy(p DropPolicy) {
	if p != nil {
		b.policy = p
	}
}

// Capacity returns the byte capacity (0 = unbounded).
func (b *Buffer) Capacity() int { return b.capacity }

// Used returns the bytes currently stored.
func (b *Buffer) Used() int { return b.used }

// Free returns the remaining capacity; unbounded buffers report a negative
// value.
func (b *Buffer) Free() int {
	if b.capacity <= 0 {
		return -1
	}
	return b.capacity - b.used
}

// Len returns the number of stored copies.
func (b *Buffer) Len() int { return len(b.list) }

// Has reports whether a copy of message id is stored.
func (b *Buffer) Has(id int) bool {
	_, ok := b.byID[id]
	return ok
}

// Get returns the stored copy of message id, or nil.
func (b *Buffer) Get(id int) *msg.Copy {
	i, ok := b.byID[id]
	if !ok {
		return nil
	}
	return b.list[i]
}

// All returns the stored copies in insertion order. The returned slice is
// shared; callers must not mutate it (copies themselves may be mutated).
func (b *Buffer) All() []*msg.Copy { return b.list }

// Add stores c, evicting victims via the drop policy as needed. It returns
// the evicted copies and whether c was stored; a message larger than the
// whole buffer is refused with ok=false. Adding a duplicate id panics —
// routers must check Has first.
func (b *Buffer) Add(t float64, c *msg.Copy) (dropped []*msg.Copy, ok bool) {
	if _, dup := b.byID[c.M.ID]; dup {
		panic(fmt.Sprintf("buffer: duplicate add of message %d", c.M.ID))
	}
	if b.capacity > 0 {
		if c.M.Size > b.capacity {
			return nil, false
		}
		for b.used+c.M.Size > b.capacity {
			v := b.policy(t, b.list)
			dropped = append(dropped, b.removeAt(v))
		}
	}
	b.byID[c.M.ID] = len(b.list)
	b.list = append(b.list, c)
	b.used += c.M.Size
	b.expiryPush(expEntry{at: c.M.Expire, id: c.M.ID})
	return dropped, true
}

// Remove deletes and returns the copy of message id, or nil if absent.
func (b *Buffer) Remove(id int) *msg.Copy {
	i, ok := b.byID[id]
	if !ok {
		return nil
	}
	return b.removeAt(i)
}

func (b *Buffer) removeAt(i int) *msg.Copy {
	c := b.list[i]
	copy(b.list[i:], b.list[i+1:])
	b.list = b.list[:len(b.list)-1]
	delete(b.byID, c.M.ID)
	for j := i; j < len(b.list); j++ {
		b.byID[b.list[j].M.ID] = j
	}
	b.used -= c.M.Size
	return c
}

// DropExpired removes and returns every copy expired at time t, in
// (expiry time, message id) order. A message re-added after removal keeps
// its immutable expiry time, so duplicate heap entries are harmless: the
// first matching pop removes the copy, later ones find the id gone.
func (b *Buffer) DropExpired(t float64) []*msg.Copy {
	var out []*msg.Copy
	for len(b.expiry) > 0 {
		top := b.expiry[0]
		if !(top.at < t) { // Expired(t) is t > Expire
			break
		}
		b.expiryPop()
		if i, ok := b.byID[top.id]; ok {
			out = append(out, b.removeAt(i))
		}
	}
	return out
}

// NextExpiry returns the earliest expiry time left in the expiry heap, or
// +Inf when it is empty. The entry may be stale (its copy already
// removed), so it is a lower bound: DropExpired(t) drops nothing while
// !(NextExpiry() < t).
func (b *Buffer) NextExpiry() float64 {
	if len(b.expiry) == 0 {
		return math.Inf(1)
	}
	return b.expiry[0].at
}

// expiryPush inserts e, maintaining (at, id) min-heap order.
func (b *Buffer) expiryPush(e expEntry) {
	b.expiry = append(b.expiry, e)
	i := len(b.expiry) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !expLess(b.expiry[i], b.expiry[p]) {
			break
		}
		b.expiry[i], b.expiry[p] = b.expiry[p], b.expiry[i]
		i = p
	}
}

// expiryPop removes the minimum entry.
func (b *Buffer) expiryPop() {
	n := len(b.expiry) - 1
	b.expiry[0] = b.expiry[n]
	b.expiry = b.expiry[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && expLess(b.expiry[l], b.expiry[small]) {
			small = l
		}
		if r < n && expLess(b.expiry[r], b.expiry[small]) {
			small = r
		}
		if small == i {
			return
		}
		b.expiry[i], b.expiry[small] = b.expiry[small], b.expiry[i]
		i = small
	}
}

func expLess(a, b expEntry) bool {
	return a.at < b.at || (a.at == b.at && a.id < b.id)
}
