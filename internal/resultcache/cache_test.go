package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
)

// keyOf derives a distinct valid content address per index.
func keyOf(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("cell-%d", i)))
	return hex.EncodeToString(sum[:])
}

func resultOf(i int) *Result { return resultFor(keyOf(i), i) }

// resultFor builds a result under key whose summaries carry v.
func resultFor(key string, v int) *Result {
	return &Result{
		Key:     key,
		Seeds:   []int64{1},
		PerSeed: []metrics.Summary{{Generated: v}},
		Mean:    metrics.Summary{Generated: v},
	}
}

// traceBlobOf derives a distinct blob per index (content is opaque to the
// store; decoding lives a layer up).
func traceBlobOf(i int) []byte {
	return []byte(fmt.Sprintf("DTNTRC-test-blob-%d", i))
}

// kindStats is one kind's slice of Stats.
type kindStats struct{ hits, misses, puts, remoteHits int64 }

// kindCase drives one entry kind through its own entry points, so each
// behaviour both kinds share is checked once, by a table over both.
type kindCase struct {
	kind  string
	body  func(key string, v int) []byte // the file bytes of entry v under key
	put   func(st *Store, key string, v int) error
	get   func(st *Store, key string) ([]byte, bool) // counted, pull-through
	local func(st *Store, key string) ([]byte, bool) // counted, local-only
	stats func(s Stats) kindStats
}

var kindCases = []kindCase{{
	kind: Results,
	body: func(key string, v int) []byte {
		data, _ := json.MarshalIndent(resultFor(key, v), "", "  ")
		return append(data, '\n')
	},
	put: func(st *Store, key string, v int) error { return st.Put(resultFor(key, v)) },
	get: func(st *Store, key string) ([]byte, bool) {
		res, raw, ok := st.GetRaw(key)
		if ok && (res == nil || res.Key != key) {
			return nil, false
		}
		return raw, ok
	},
	local: func(st *Store, key string) ([]byte, bool) {
		_, raw, ok := st.GetRawLocal(key)
		return raw, ok
	},
	stats: func(s Stats) kindStats { return kindStats{s.Hits, s.Misses, s.Puts, s.RemoteHits} },
}, {
	kind:  Traces,
	body:  func(_ string, v int) []byte { return traceBlobOf(v) },
	put:   func(st *Store, key string, v int) error { return st.PutTrace(key, traceBlobOf(v)) },
	get:   (*Store).GetTrace,
	local: func(st *Store, key string) ([]byte, bool) { return st.GetLocal(Traces, key) },
	stats: func(s Stats) kindStats { return kindStats{s.TraceHits, s.TraceMisses, s.TracePuts, s.TraceRemoteHits} },
}}

// TestRoundTrip pins both kinds' entry surface: put then get returns the
// file bytes verbatim (a result also decodes to the value put), misses
// are misses, an overwrite wins (auto-mode re-records over a corrupt
// blob), an invalid key is discarded without error, and nil stores stay
// inert.
func TestRoundTrip(t *testing.T) {
	for _, kc := range kindCases {
		t.Run(kc.kind, func(t *testing.T) {
			st, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			key := keyOf(1)
			if kc.kind == Traces && st.HasTrace(key) {
				t.Fatal("fresh store has a trace")
			}
			if _, ok := kc.get(st, key); ok {
				t.Fatal("hit on empty store")
			}
			if err := kc.put(st, key, 1); err != nil {
				t.Fatal(err)
			}
			if kc.kind == Traces && !st.HasTrace(key) {
				t.Fatal("HasTrace false after put")
			}
			if got, ok := kc.get(st, key); !ok || string(got) != string(kc.body(key, 1)) {
				t.Fatalf("after put: %q, %v", got, ok)
			}
			if kc.kind == Results {
				if got, ok := st.Get(key); !ok || got.Mean != resultOf(1).Mean || got.Key != key {
					t.Fatalf("round trip mangled: %+v", got)
				}
			}
			if err := kc.put(st, key, 2); err != nil {
				t.Fatal(err)
			}
			if got, _ := kc.get(st, key); string(got) != string(kc.body(key, 2)) {
				t.Fatalf("after overwrite: %q", got)
			}

			if err := kc.put(st, "not a key", 3); err != nil {
				t.Error("invalid key errored instead of discarding")
			}
			if _, ok := kc.get(st, "not a key"); ok || st.HasTrace("not a key") {
				t.Error("invalid key stored")
			}
			var nilStore *Store
			if err := kc.put(nilStore, key, 1); err != nil {
				t.Errorf("nil store put: %v", err)
			}
			if _, ok := kc.get(nilStore, key); ok {
				t.Error("nil store hit")
			}
			if nilStore.HasTrace(key) {
				t.Error("nil store HasTrace true")
			}
		})
	}
}

// TestStatsCounters: hits, misses and puts are counted where they happen,
// per kind. One kind's traffic never perturbs the other's counters (the
// daemon's submissions invariant reconciles result reads only), HasTrace
// counts nothing, and a nil store reports zeros without panicking.
func TestStatsCounters(t *testing.T) {
	for i, kc := range kindCases {
		t.Run(kc.kind, func(t *testing.T) {
			st, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			kc.get(st, keyOf(0)) // miss
			kc.put(st, keyOf(0), 0)
			st.HasTrace(keyOf(0)) // neither
			kc.get(st, keyOf(0))  // hit
			kc.get(st, keyOf(0))  // hit
			kc.get(st, keyOf(1))  // miss
			got := st.Stats()
			if k := kc.stats(got); k != (kindStats{hits: 2, misses: 2, puts: 1}) {
				t.Errorf("%s counters = %+v, want 2 hits, 2 misses, 1 put", kc.kind, k)
			}
			if k := kindCases[1-i].stats(got); k != (kindStats{}) {
				t.Errorf("%s traffic leaked into %s counters: %+v", kc.kind, kindCases[1-i].kind, got)
			}
		})
	}
	var nilStore *Store
	if s := nilStore.Stats(); s != (Stats{}) {
		t.Errorf("nil store stats = %+v", s)
	}
}

// entrySize measures one persisted entry, so eviction tests can pick
// byte bounds in units of entries instead of guessing JSON sizes.
func entrySize(t *testing.T) int64 {
	t.Helper()
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultOf(0)); err != nil {
		t.Fatal(err)
	}
	var size int64
	filepath.WalkDir(st.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				size = info.Size()
			}
		}
		return nil
	})
	if size == 0 {
		t.Fatal("no entry written")
	}
	return size
}

func TestNilStoreMisses(t *testing.T) {
	var st *Store
	if _, ok := st.Get(keyOf(1)); ok {
		t.Fatal("nil store hit")
	}
	if err := st.Put(resultOf(1)); err != nil {
		t.Fatalf("nil store Put: %v", err)
	}
}

func TestCorruptEntryIsMiss(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultOf(1)); err != nil {
		t.Fatal(err)
	}
	path := st.path(resultKind, keyOf(1))
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(keyOf(1)); ok {
		t.Fatal("corrupt entry served as hit")
	}
	// An entry whose body names a different key (tampered or misplaced)
	// is also a miss.
	wrong := resultOf(2)
	if err := st.Put(wrong); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(st.path(resultKind, keyOf(2)))
	os.MkdirAll(filepath.Dir(st.path(resultKind, keyOf(3))), 0o755)
	os.WriteFile(st.path(resultKind, keyOf(3)), data, 0o644)
	if _, ok := st.Get(keyOf(3)); ok {
		t.Fatal("key-mismatched entry served as hit")
	}
}

func TestValidKey(t *testing.T) {
	if !ValidKey(keyOf(0)) {
		t.Fatal("real key rejected")
	}
	for _, bad := range []string{"", "abc", "../../../../etc/passwd", keyOf(0)[:63] + "Z", keyOf(0) + "a"} {
		if ValidKey(bad) {
			t.Errorf("key %q accepted", bad)
		}
	}
}

// TestEvictionBound: the store never exceeds its byte bound (beyond the
// just-written entry), and evicts oldest-mtime first.
func TestEvictionBound(t *testing.T) {
	size := entrySize(t)
	st, err := Open(t.TempDir(), 3*size+size/2) // room for 3 entries
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Put(resultOf(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // distinct mtimes
	}
	var total int64
	count := 0
	filepath.WalkDir(st.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			info, _ := d.Info()
			total += info.Size()
			count++
		}
		return nil
	})
	if total > 3*size+size/2 {
		t.Errorf("cache holds %d bytes, bound %d", total, 3*size+size/2)
	}
	if count != 3 {
		t.Errorf("cache holds %d entries, want 3", count)
	}
	// Oldest were evicted, newest survive.
	for i := 0; i < 3; i++ {
		if _, ok := st.Get(keyOf(i)); ok {
			t.Errorf("entry %d should have been evicted", i)
		}
	}
	for i := 3; i < 6; i++ {
		if _, ok := st.Get(keyOf(i)); !ok {
			t.Errorf("entry %d evicted too early", i)
		}
	}
}

// TestEvictionSparesReadEntries: a cache hit touches the entry's mtime,
// so the cells a repeated sweep keeps reusing are evicted last.
func TestEvictionSparesReadEntries(t *testing.T) {
	size := entrySize(t)
	st, err := Open(t.TempDir(), 2*size+size/2) // room for 2 entries
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultOf(0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := st.Put(resultOf(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, ok := st.Get(keyOf(0)); !ok { // touch 0: now younger than 1
		t.Fatal("miss on entry 0")
	}
	time.Sleep(5 * time.Millisecond)
	if err := st.Put(resultOf(2)); err != nil { // forces one eviction
		t.Fatal(err)
	}
	if _, ok := st.Get(keyOf(0)); !ok {
		t.Error("recently-read entry 0 was evicted")
	}
	if _, ok := st.Get(keyOf(1)); ok {
		t.Error("stale entry 1 survived over read entry 0")
	}
	if _, ok := st.Get(keyOf(2)); !ok {
		t.Error("just-written entry 2 missing")
	}
}

// TestOverwriteAccounting pins the curBytes fix: re-Putting an existing
// key replaces its file, so only the size delta may join the running
// approximation. Before the fix every overwrite added the full entry
// size, so repeated overwrites of one key inflated curBytes past the
// bound and triggered an eviction scan per Put.
func TestOverwriteAccounting(t *testing.T) {
	size := entrySize(t)
	st, err := Open(t.TempDir(), 100*size) // bound far above actual usage
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := st.Put(resultOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // 50 overwrites of one existing key
		if err := st.Put(resultOf(0)); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.CurBytes > 5*size {
		t.Errorf("curBytes inflated to %d after overwrites (4 entries of ~%d bytes on disk)", stats.CurBytes, size)
	}
	// The store never crossed its bound, so no Put after the first scan
	// should have walked the directory again, let alone evicted.
	if stats.Scans > 1 {
		t.Errorf("%d eviction scans for a store that never crossed its bound", stats.Scans)
	}
	if stats.Evictions != 0 {
		t.Errorf("%d premature evictions", stats.Evictions)
	}
	for i := 0; i < 4; i++ {
		if _, ok := st.Get(keyOf(i)); !ok {
			t.Errorf("entry %d lost", i)
		}
	}
}

// TestUnboundedGetSkipsTouch: with no byte bound there is no eviction
// order to maintain, so Get must not burn a Chtimes syscall per hit.
func TestUnboundedGetSkipsTouch(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultOf(0)); err != nil {
		t.Fatal(err)
	}
	path := st.path(resultKind, keyOf(0))
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(keyOf(0)); !ok {
		t.Fatal("miss after Put")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(old) {
		t.Errorf("unbounded Get touched mtime (%v -> %v)", old, info.ModTime())
	}

	// A bounded store still touches: the LRU contract of
	// TestEvictionSparesReadEntries depends on it.
	stb, err := Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := stb.Put(resultOf(0)); err != nil {
		t.Fatal(err)
	}
	bpath := stb.path(resultKind, keyOf(0))
	if err := os.Chtimes(bpath, old, old); err != nil {
		t.Fatal(err)
	}
	if _, ok := stb.Get(keyOf(0)); !ok {
		t.Fatal("miss after Put")
	}
	info, err = os.Stat(bpath)
	if err != nil {
		t.Fatal(err)
	}
	if info.ModTime().Equal(old) {
		t.Error("bounded Get did not touch mtime")
	}
}

// BenchmarkGet measures hit latency for bounded (read-touch Chtimes per
// hit) and unbounded (no touch) stores — the per-hit syscall the
// unbounded path sheds.
func BenchmarkGet(b *testing.B) {
	for _, bc := range []struct {
		name     string
		maxBytes int64
	}{{"unbounded", 0}, {"bounded", 1 << 30}} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := Open(b.TempDir(), bc.maxBytes)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Put(resultOf(0)); err != nil {
				b.Fatal(err)
			}
			key := keyOf(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Get(key); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// TestPutNeverEvictsItself: even when one entry exceeds the whole bound,
// the entry just written survives its own eviction pass.
func TestPutNeverEvictsItself(t *testing.T) {
	st, err := Open(t.TempDir(), 1) // absurd bound: smaller than any entry
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultOf(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(keyOf(0)); !ok {
		t.Fatal("freshly-written entry evicted by its own Put")
	}
	// The next Put displaces it.
	time.Sleep(5 * time.Millisecond)
	if err := st.Put(resultOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(keyOf(0)); ok {
		t.Error("old entry survived a bound of 1 byte")
	}
	if _, ok := st.Get(keyOf(1)); !ok {
		t.Error("new entry evicted by its own Put")
	}
}

// TestTraceEvictionShared pins that trace blobs live under the store's
// byte bound with results: writing many traces into a small store evicts
// the oldest, and the bound holds over the union of both entry kinds.
func TestTraceEvictionShared(t *testing.T) {
	blob := make([]byte, 1024)
	st, err := Open(t.TempDir(), 4*1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := st.PutTrace(keyOf(i), blob); err != nil {
			t.Fatal(err)
		}
	}
	survivors := 0
	for i := 0; i < 12; i++ {
		if st.HasTrace(keyOf(i)) {
			survivors++
		}
	}
	if survivors == 12 {
		t.Fatal("no trace blob evicted from an over-full store")
	}
	if !st.HasTrace(keyOf(11)) {
		t.Error("most recent trace evicted")
	}
}
