// Package resultcache is the content-addressed store shared by the dtnd
// daemon, its fleet and the sweep/figures CLIs. It holds two kinds of
// entry, each under the SHA-256 of what produced it: figure-cell results
// (simulation summaries keyed by their canonicalized scenario spec, JSON
// files) and recorded contact scripts (opaque DTNTRC1 blobs keyed by
// their world). Both kinds go through one path: atomic writes, an
// optional total-size bound with oldest-mtime eviction over both, read-
// side mtime touching so entries a repeated sweep keeps hitting stay
// resident, per-kind counters and an optional pull-through tier. Because
// the key is derived from the resolved job
// (experiment.ScenarioSpec.CacheKey), any process pointing at the same
// directory — a daemon, a CLI sweep, a CI smoke run — reuses every cell
// and recorded world any of the others already computed.
//
// Results also have a bounded in-process tier (memTier): a result read
// and validated once is kept decoded, with its bytes and the identity of
// the file it came from (same file, size and mtime, taken from the
// descriptor that was read). A repeat hit stats the path and is served
// from memory only while that identity still holds, so the directory
// stays the one source of truth: another process's overwrite, an
// eviction, a deletion or an in-place corruption sends the read back to
// disk and its validator. Trace blobs, megabytes each and decoded once
// per sweep by their reader, are not kept.
package resultcache

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Result is the persisted outcome of one simulation job — the value a
// content address resolves to. CanonicalSpec echoes the exact resolved
// scenario the key was derived from, so a cached result is
// self-describing.
type Result struct {
	Key           string            `json:"key"`
	CanonicalSpec json.RawMessage   `json:"canonical_spec"`
	Seeds         []int64           `json:"seeds"`
	PerSeed       []metrics.Summary `json:"per_seed"`
	Mean          metrics.Summary   `json:"mean"`
}

// Entry kinds. A kind's name is also the route segment a daemon serves
// it under (GET /v1/{kind}/{key}), which is how the remote tier asks a
// peer for it.
const (
	Results = "results" // figure-cell results: Result JSON files
	Traces  = "traces"  // recorded contact scripts: opaque DTNTRC1 blobs
)

// kind is how the store keeps one entry kind: its file extension, how
// its bytes are validated, and which counter set it feeds.
type kind struct {
	name string
	ext  string
	// check validates bytes read from disk or fetched from a peer for
	// key. A trace blob stays opaque: its reader decodes it and treats a
	// failure there exactly like a miss (re-record), so a torn blob can
	// never poison a replay.
	check func(key string, data []byte) (*Result, error)
	ctr   int  // index into Store.ctr
	mem   bool // validated entries are kept in the memory tier
}

var (
	resultKind = &kind{name: Results, ext: ".json", check: DecodeResult, ctr: 0, mem: true}
	traceKind  = &kind{name: Traces, ext: ".trace", check: func(string, []byte) (*Result, error) { return nil, nil }, ctr: 1}
)

// DecodeResult is the result kind's validator: data must decode to a
// Result carrying key. Bytes from disk or from a peer are trusted only
// through it, so a corrupt or misplaced entry is a miss, never a hit.
func DecodeResult(key string, data []byte) (*Result, error) {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("resultcache: encoded result for %s: %w", key, err)
	}
	if res.Key != key {
		return nil, fmt.Errorf("resultcache: encoded result claims key %s, want %s", res.Key, key)
	}
	return &res, nil
}

// Remote is a secondary tier consulted on local misses: another daemon's
// store reachable over the wire (the dtnd fleet fetcher probes workers'
// GET /v1/{kind}/{key}). A fetched entry is validated like a local one
// and persisted locally (pull-through), so each remote entry is paid for
// at most once per store. Implementations return the entry bytes
// verbatim; they are only ever asked for valid keys.
type Remote interface {
	Fetch(kind, key string) ([]byte, bool)
}

// counters is one entry kind's observability counters, exported through
// Stats (and from there the daemon's /metrics endpoint). Atomics: reads
// are lock-free and must stay that way. remoteHits is the subset of hits
// served by pull-through rather than the local directory, memHits the
// subset served from the memory tier.
type counters struct {
	hits, misses, puts, remoteHits, remoteMisses, memHits atomic.Int64
}

// Store is a bounded on-disk result cache rooted at one directory. A nil
// Store is valid and always misses — callers need no "is caching on"
// branches.
type Store struct {
	dir      string
	maxBytes int64
	// remote is the optional pull-through tier. Set once at startup
	// (SetRemote) before the store serves reads; never mutated after.
	remote Remote

	// mu serializes eviction sweeps (concurrent Puts would double-count
	// sizes and race removals); reads never take it.
	mu sync.Mutex
	// curBytes approximates the store's total size: exact after every
	// directory scan, incremented per write in between, so a Put under
	// the bound costs no I/O beyond its own file. External writers
	// sharing the directory are picked up at the next scan.
	curBytes int64
	scanned  bool

	// ctr holds each kind's counters apart: the daemon's submissions ==
	// hits + misses invariant reconciles result reads only, and a trace
	// probe must not perturb it.
	ctr          [2]counters
	scans        atomic.Int64
	evictions    atomic.Int64
	evictedBytes atomic.Int64

	// mem is the results' in-process tier; only reads take its lock.
	mem memTier
}

// Stats is a point-in-time snapshot of the store's counters. CurBytes is
// the size approximation eviction works from — maintained only for
// bounded stores (MaxBytes > 0), zero otherwise.
type Stats struct {
	Hits         int64 // Get served a cached result
	Misses       int64 // Get found nothing (or a corrupt entry)
	Puts         int64 // results persisted
	Scans        int64 // eviction directory walks
	Evictions    int64 // entries removed by eviction
	EvictedBytes int64 // bytes reclaimed by eviction
	CurBytes     int64 // approximate store size (bounded stores only)

	TraceHits   int64 // GetTrace served a recorded contact script
	TraceMisses int64 // GetTrace found nothing
	TracePuts   int64 // contact scripts persisted

	RemoteHits      int64 // result hits pulled through from the remote tier
	RemoteMisses    int64 // remote result probes that found nothing either
	TraceRemoteHits int64 // trace hits pulled through from the remote tier
	MemHits         int64 // result hits served from the memory tier
}

// Stats returns the store's counters. A nil store reports zeros.
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	st.mu.Lock()
	cur := st.curBytes
	st.mu.Unlock()
	r, t := &st.ctr[resultKind.ctr], &st.ctr[traceKind.ctr]
	return Stats{
		Hits:         r.hits.Load(),
		Misses:       r.misses.Load(),
		Puts:         r.puts.Load(),
		Scans:        st.scans.Load(),
		Evictions:    st.evictions.Load(),
		EvictedBytes: st.evictedBytes.Load(),
		CurBytes:     cur,
		TraceHits:    t.hits.Load(),
		TraceMisses:  t.misses.Load(),
		TracePuts:    t.puts.Load(),

		RemoteHits:      r.remoteHits.Load(),
		RemoteMisses:    r.remoteMisses.Load(),
		TraceRemoteHits: t.remoteHits.Load(),
		MemHits:         r.memHits.Load(),
	}
}

// SetRemote attaches the pull-through tier. Call once at startup, before
// the store serves reads; a nil store ignores it.
func (st *Store) SetRemote(r Remote) {
	if st != nil {
		st.remote = r
	}
}

// Open returns a store rooted at dir, creating it if needed. maxBytes
// bounds the total size of cached entries (0 = unbounded): after every
// write, oldest-mtime entries are evicted until the total fits again.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Store{dir: dir, maxBytes: maxBytes, mem: memTier{budget: memBudget}}, nil
}

// path maps a content address of kind k to its file; the two-character
// fan out keeps directories small under big sweeps, and both kinds share
// it (and the size bound) under distinct extensions. Keys must be
// lowercase hex SHA-256 — anything else (e.g. a path-traversing "..xx"
// from a serving route) maps to nothing, so it is never read, written,
// counted or sent to a peer.
func (st *Store) path(k *kind, key string) string {
	if st == nil || !ValidKey(key) {
		return ""
	}
	return filepath.Join(st.dir, key[:2], key+k.ext)
}

// ValidKey reports whether key is a lowercase hex SHA-256.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// read is every counted read of one entry. A result whose file still is
// the one the memory tier validated is served from memory; otherwise
// the local file is read and validated, and a valid result enters the
// tier (a pulled-through one at its first local read). A hit touches the file's mtime on bounded stores, so entries a
// repeated sweep keeps reusing stay at the young end of the eviction
// order (an unbounded store never evicts, so it skips the per-hit
// Chtimes syscall). On a local miss with pull set, the remote tier (if
// attached) is probed and validated bytes are persisted locally. The
// serving routes read with pull unset: a probe can then never recurse
// back into the prober, which is what keeps fleet pull-through
// loop-free. The decoded Result is nil for opaque kinds.
func (st *Store) read(k *kind, key string, pull bool) (*Result, []byte, bool) {
	path := st.path(k, key)
	if path == "" {
		return nil, nil, false
	}
	c := &st.ctr[k.ctr]
	if k.mem {
		if e := st.mem.get(key); e != nil {
			if fi, err := os.Stat(path); err == nil && e.matches(fi) {
				if st.maxBytes > 0 {
					e.mtime.Store(st.touch(path, fi))
				}
				c.memHits.Add(1)
				c.hits.Add(1)
				return e.res, e.data, true
			}
			st.mem.drop(key, e)
		}
	}
	if data, fi, err := readFile(path); err == nil {
		if res, err := k.check(key, data); err == nil {
			mtime := fi.ModTime().UnixNano()
			if st.maxBytes > 0 {
				mtime = st.touch(path, fi)
			}
			if k.mem && int64(len(data)) == fi.Size() {
				st.mem.add(key, newMemEntry(res, data, fi, mtime))
			}
			c.hits.Add(1)
			return res, data, true
		}
	}
	if pull && st.remote != nil {
		if data, ok := st.remote.Fetch(k.name, key); ok {
			if res, err := k.check(key, data); err == nil && st.writeEntry(path, data) == nil {
				c.remoteHits.Add(1)
				c.hits.Add(1)
				return res, data, true
			}
		}
		c.remoteMisses.Add(1)
	}
	c.misses.Add(1)
	return nil, nil, false
}

// touch is a bounded store's best-effort LRU touch of a hit's file, fi
// its stat. It returns the mtime the file now has, in Unix nanoseconds.
func (st *Store) touch(path string, fi os.FileInfo) int64 {
	now := time.Now()
	if os.Chtimes(path, now, now) != nil {
		return fi.ModTime().UnixNano()
	}
	return now.UnixNano()
}

// put persists one entry of kind k and counts it. A nil store or an
// invalid key discards silently.
func (st *Store) put(k *kind, key string, data []byte) error {
	path := st.path(k, key)
	if path == "" {
		return nil
	}
	if err := st.writeEntry(path, data); err != nil {
		return err
	}
	st.ctr[k.ctr].puts.Add(1)
	return nil
}

// Get returns the cached result for key, if present and intact, pulling
// it through from the remote tier on a local miss. The result may be
// shared with other readers through the memory tier: callers must treat
// it as read-only.
func (st *Store) Get(key string) (*Result, bool) {
	res, _, ok := st.read(resultKind, key, true)
	return res, ok
}

// GetRaw is Get returning the encoded file bytes alongside the parsed
// result, so a serving path that only splices the JSON onward (the
// daemon's cache-hit fast path) never re-encodes it. Both the result and
// the bytes may be shared: callers must not modify either.
func (st *Store) GetRaw(key string) (*Result, []byte, bool) {
	return st.read(resultKind, key, true)
}

// GetRawLocal is GetRaw restricted to the local directory.
func (st *Store) GetRawLocal(key string) (*Result, []byte, bool) {
	return st.read(resultKind, key, false)
}

// GetLocal is the local-only read of one entry of the named kind
// (Results or Traces) — what a daemon serves its peers from. An unknown
// kind misses.
func (st *Store) GetLocal(name, key string) ([]byte, bool) {
	for _, k := range []*kind{resultKind, traceKind} {
		if k.name == name {
			_, data, ok := st.read(k, key, false)
			return data, ok
		}
	}
	return nil, false
}

// GetTrace returns the recorded contact-script blob for key, if present,
// pulling it through from the remote tier on a local miss. The caller
// decodes it.
func (st *Store) GetTrace(key string) ([]byte, bool) {
	_, data, ok := st.read(traceKind, key, true)
	return data, ok
}

// HasTrace reports whether a trace blob exists for key, without counting
// a hit or miss — a planning probe, not a read.
func (st *Store) HasTrace(key string) bool {
	path := st.path(traceKind, key)
	if path == "" {
		return false
	}
	_, err := os.Stat(path)
	return err == nil
}

// Put persists a result atomically (temp file + rename, so a crashed
// write can never be read back as a corrupt hit), then enforces the size
// bound. A nil store discards silently, without encoding.
func (st *Store) Put(res *Result) error {
	if st.path(resultKind, res.Key) == "" {
		return nil
	}
	_, err := st.PutRaw(res)
	return err
}

// PutRaw is Put returning the encoded bytes it wrote — also on a nil
// store, so a caller that serves the result onward encodes it once.
func (st *Store) PutRaw(res *Result) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	return data, st.put(resultKind, res.Key, data)
}

// PutEncoded persists already-encoded result bytes under key after
// validating them with DecodeResult — the write path for entries fetched
// from another daemon, where re-encoding would waste work and could
// perturb byte-identical splicing. A nil store or an invalid key
// discards silently, as for every write.
func (st *Store) PutEncoded(key string, data []byte) error {
	if st == nil {
		return nil
	}
	if _, err := DecodeResult(key, data); err != nil {
		return err
	}
	return st.put(resultKind, key, data)
}

// PutTrace persists a recorded contact-script blob atomically. A nil
// store discards silently.
func (st *Store) PutTrace(key string, data []byte) error {
	return st.put(traceKind, key, data)
}

// writeEntry persists one store file atomically (temp + rename) and
// enforces the size bound — the tail of every write.
func (st *Store) writeEntry(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// An overwrite replaces the old file, so only the size delta joins the
	// approximation — adding the full new size on every Put of the same
	// key inflated curBytes without bound and triggered premature eviction
	// scans. The stat races a concurrent same-key rename, but curBytes is
	// an approximation by contract: the next scan restores exactness.
	var oldSize int64
	if st.maxBytes > 0 {
		if fi, err := os.Stat(path); err == nil {
			oldSize = fi.Size()
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if st.maxBytes > 0 {
		st.mu.Lock()
		st.curBytes += int64(len(data)) - oldSize
		// Scan and evict only when the (approximate) total crosses the
		// bound — steady-state Puts under it never walk the directory.
		if !st.scanned || st.curBytes > st.maxBytes {
			st.evictLocked(path)
		}
		st.mu.Unlock()
	}
	return nil
}

// evictLocked rescans the store and removes oldest-mtime entries until
// the total fits the bound, with slack: eviction drives the total down
// to ~90% of maxBytes, so a burst of writes triggers one scan per ~10%
// of the budget instead of one per Put. The entry just written (keep)
// is exempt — a Put can never evict its own result, the caller was
// promised the cache holds it. In-flight temp files of concurrent Puts
// are never touched (removing one would fail that Put's rename); a
// crashed write's leftover temp file is reclaimed once it is a day old.
// st.mu must be held.
func (st *Store) evictLocked(keep string) {
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	var total int64
	filepath.WalkDir(st.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if strings.HasPrefix(d.Name(), "tmp-") {
			if time.Since(info.ModTime()) > 24*time.Hour {
				os.Remove(path) // orphan from a crashed write
			}
			return nil
		}
		entries = append(entries, entry{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	st.scans.Add(1)
	st.scanned = true
	defer func() { st.curBytes = total }()
	if total <= st.maxBytes {
		return
	}
	lowWater := st.maxBytes - st.maxBytes/10
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path // stable order at equal mtimes
	})
	for _, e := range entries {
		if total <= lowWater {
			return
		}
		if e.path == keep {
			continue
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			st.evictions.Add(1)
			st.evictedBytes.Add(e.size)
		}
	}
}
