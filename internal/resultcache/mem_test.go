package resultcache

import (
	"bytes"
	"os"
	"sync"
	"testing"
	"time"
)

// bytes is the cost of every entry the tier holds.
func (m *memTier) bytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.curBytes + m.oldBytes
}

// getOK reads key and fails the test unless it hits with summaries
// carrying v.
func getOK(t *testing.T, st *Store, key string, v int) ([]byte, *Result) {
	t.Helper()
	res, raw, ok := st.GetRaw(key)
	if !ok {
		t.Fatalf("miss on %s", key[:8])
	}
	if res.Key != key || res.Mean.Generated != v {
		t.Fatalf("read %+v, want key %s, value %d", res, key[:8], v)
	}
	if want := kindCases[0].body(key, v); !bytes.Equal(raw, want) {
		t.Fatalf("read bytes %q, want %q", raw, want)
	}
	return raw, res
}

// TestMemTierServesRepeatHits: the first read of a result fills the tier
// from disk, later reads (GetRaw, Get, the local-only reads) are served
// from memory and counted as hits, and on a bounded store each memory
// hit still touches the file, whose new mtime the next hit matches.
func TestMemTierServesRepeatHits(t *testing.T) {
	for _, maxBytes := range []int64{0, 1 << 30} {
		st, err := Open(t.TempDir(), maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		key := keyOf(1)
		if err := st.Put(resultOf(1)); err != nil {
			t.Fatal(err)
		}
		path := st.path(resultKind, key)
		old := time.Now().Add(-time.Hour)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		_, first := getOK(t, st, key, 1)
		if s := st.Stats(); s.Hits != 1 || s.MemHits != 0 {
			t.Fatalf("max %d: first read %+v, want one disk hit", maxBytes, s)
		}
		var mtimes []time.Time
		for i := 0; i < 3; i++ {
			if _, res := getOK(t, st, key, 1); res != first {
				t.Fatalf("max %d: repeat hit %d decoded again", maxBytes, i)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			mtimes = append(mtimes, info.ModTime())
		}
		st.Get(key)
		st.GetRawLocal(key)
		st.GetLocal(Results, key)
		if s := st.Stats(); s.Hits != 7 || s.MemHits != 6 || s.Misses != 0 {
			t.Errorf("max %d: stats %+v, want 7 hits, 6 from memory", maxBytes, s)
		}
		if maxBytes == 0 && !mtimes[2].Equal(old) {
			t.Errorf("unbounded memory hit touched the file: %v", mtimes)
		}
		if maxBytes > 0 && !mtimes[0].After(old) {
			t.Errorf("bounded memory hit did not touch the file: %v", mtimes)
		}
	}
}

// TestMemTierCorruptInPlaceIsMiss: a file edited in place after its
// result entered the tier is read from disk again, where it is a miss.
// The same-size edit waits out coarse file-system timestamps, which tick
// every few milliseconds on some kernels.
func TestMemTierCorruptInPlaceIsMiss(t *testing.T) {
	for _, sameSize := range []bool{false, true} {
		st, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		key := keyOf(1)
		if err := st.Put(resultOf(1)); err != nil {
			t.Fatal(err)
		}
		raw, _ := getOK(t, st, key, 1)
		path := st.path(resultKind, key)
		if sameSize {
			time.Sleep(50 * time.Millisecond)
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.Write(bytes.Repeat([]byte("x"), len(raw)))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(key); ok {
			t.Fatalf("same size %v: corrupt file served from memory", sameSize)
		}
		if s := st.Stats(); s.MemHits != 0 || s.Misses != 1 {
			t.Errorf("same size %v: stats %+v, want one miss, no memory hit", sameSize, s)
		}
	}
}

// TestMemTierSeesOtherStores: another store on the same directory that
// overwrites an entry gets its new bytes served; one that evicts it, or
// an external delete, makes it a miss.
func TestMemTierSeesOtherStores(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Open(dir, 1) // evicts all but its newest entry
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Put(resultOf(i)); err != nil {
			t.Fatal(err)
		}
		getOK(t, st, keyOf(i), i)
	}

	if err := other.Put(resultFor(keyOf(0), 7)); err != nil { // evicts entry 1
		t.Fatal(err)
	}
	getOK(t, st, keyOf(0), 7)
	if _, ok := st.Get(keyOf(1)); ok {
		t.Error("entry evicted by another store served from memory")
	}

	getOK(t, st, keyOf(0), 7)
	if err := os.Remove(st.path(resultKind, keyOf(0))); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(keyOf(0)); ok {
		t.Error("deleted entry served from memory")
	}
	if s := st.Stats(); s.MemHits != 1 {
		t.Errorf("memory hits = %d, want 1 (only the repeat read of the overwrite)", s.MemHits)
	}
}

// TestMemTierEvictedIsMiss: an entry the store's own size bound removes
// is a miss, although the tier still holds it.
func TestMemTierEvictedIsMiss(t *testing.T) {
	st, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultOf(0)); err != nil {
		t.Fatal(err)
	}
	getOK(t, st, keyOf(0), 0)
	getOK(t, st, keyOf(0), 0)
	time.Sleep(5 * time.Millisecond)
	if err := st.Put(resultOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(keyOf(0)); ok {
		t.Error("evicted entry served from memory")
	}
	if s := st.Stats(); s.MemHits != 1 || s.Evictions != 1 {
		t.Errorf("stats %+v, want 1 memory hit and 1 eviction", s)
	}
}

// TestMemTierBudget: the bytes the tier holds never exceed its budget,
// an entry larger than a generation is never kept, and reads past the
// budget are still hits, from disk.
func TestMemTierBudget(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cost := 2 * entrySize(t)
	st.mem.budget = 6 * cost // three entries a generation
	const n = 20
	for i := 0; i < n; i++ {
		if err := st.Put(resultOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			getOK(t, st, keyOf(i), i)
			if b := st.mem.bytes(); b > st.mem.budget {
				t.Fatalf("tier holds %d bytes over a budget of %d", b, st.mem.budget)
			}
		}
	}
	for i := n - 1; i >= 0; i-- { // the most recent reads are in memory
		getOK(t, st, keyOf(i), i)
	}
	if s := st.Stats(); s.Hits != 3*n || s.MemHits == 0 || s.MemHits > 6 {
		t.Errorf("stats %+v: want %d hits, 1 to 6 of them from memory", s, 3*n)
	}

	st.mem = memTier{budget: cost} // one entry is twice a generation
	getOK(t, st, keyOf(0), 0)
	if b := st.mem.bytes(); b != 0 {
		t.Errorf("an entry over half the budget was kept (%d bytes)", b)
	}
}

// TestMemTierSkipsTraces: trace blobs never enter the tier.
func TestMemTierSkipsTraces(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTrace(keyOf(1), traceBlobOf(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := st.GetTrace(keyOf(1)); !ok {
			t.Fatal("trace miss")
		}
		if _, ok := st.GetLocal(Traces, keyOf(1)); !ok {
			t.Fatal("local trace miss")
		}
	}
	if b := st.mem.bytes(); b != 0 {
		t.Errorf("trace reads put %d bytes in the tier", b)
	}
	if s := st.Stats(); s.MemHits != 0 || s.TraceHits != 6 {
		t.Errorf("stats %+v, want 6 trace hits, none from memory", s)
	}
}

// TestMemTierConcurrent runs reads, overwrites from two stores on one
// directory and evictions together (run it with -race). Every hit must
// serve bytes that decode to the result served with them, and once the
// writers stop, a last overwrite by the other store is what is read.
func TestMemTierConcurrent(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	st, err := Open(dir, 4*size)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Open(dir, 4*size)
	if err != nil {
		t.Fatal(err)
	}
	st.mem.budget = 8 * size // two entries a generation: promotion and rotation churn too
	const keys, rounds = 6, 60
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(2)
		go func() { // readers
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				key := keyOf(r % keys)
				res, raw, ok := st.GetRaw(key)
				if !ok {
					continue
				}
				dec, err := DecodeResult(key, raw)
				if err != nil || res.Key != key || dec.Mean != res.Mean {
					t.Errorf("torn hit on %s: %+v vs bytes %q", key[:8], res, raw)
					return
				}
			}
		}()
		go func() { // writers on both stores; the bound evicts as they go
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := st
				if (r+w)%2 == 1 {
					s = other
				}
				if err := s.Put(resultFor(keyOf((r+w)%keys), r)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		if err := other.Put(resultFor(keyOf(i), 1000+i)); err != nil {
			t.Fatal(err)
		}
		getOK(t, st, keyOf(i), 1000+i)
		getOK(t, st, keyOf(i), 1000+i)
	}
	if s := st.Stats(); s.MemHits == 0 || st.mem.bytes() > st.mem.budget {
		t.Errorf("stats %+v, tier %d bytes: want memory hits within the budget", s, st.mem.bytes())
	}
}
