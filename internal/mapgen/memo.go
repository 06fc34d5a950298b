package mapgen

import "sync"

// Road-map memoisation. Every seed and protocol of a sweep shares one map
// (Scenario.MapSeed), yet each pooled simulation used to regenerate it —
// grid, diagonals, lines and the warmed shortest-path cache — from
// scratch. Load returns one RoadMap per (Config, seed) for the life of
// the process. A RoadMap is immutable after generation and its PathCache
// is concurrency-safe, so sharing across concurrently-running worlds and
// shard workers is sound; sharing the path cache also means each
// stop-to-stop Dijkstra runs once per process instead of once per run.

type memoKey struct {
	cfg  Config
	seed int64
}

// memoEntry's once gates generation so concurrent first loaders of one key
// neither duplicate the work nor hold the registry lock through it.
type memoEntry struct {
	once sync.Once
	rm   *RoadMap
}

// memoCap bounds the registry: dtnd loads maps from untrusted specs, so
// distinct configs must not accumulate for the life of the process. Past
// the cap the oldest key is forgotten; worlds holding its map keep it, and
// a later load regenerates the identical map.
const memoCap = 64

var memo struct {
	mu    sync.Mutex
	m     map[memoKey]*memoEntry
	order []memoKey // insertion order, oldest first
}

// Load returns the shared road map for (cfg, seed), generating it on first
// use. Concurrent loads of the same key return the identical *RoadMap.
// Callers needing a private map (there is no mutating API, but e.g. tests
// poking internals) should call Generate instead.
func Load(cfg Config, seed int64) *RoadMap {
	key := memoKey{cfg: cfg, seed: seed}
	memo.mu.Lock()
	if memo.m == nil {
		memo.m = make(map[memoKey]*memoEntry)
	}
	e := memo.m[key]
	if e == nil {
		if len(memo.order) == memoCap {
			delete(memo.m, memo.order[0])
			memo.order = append(memo.order[:0], memo.order[1:]...)
		}
		e = &memoEntry{}
		memo.m[key] = e
		memo.order = append(memo.order, key)
	}
	memo.mu.Unlock()
	e.once.Do(func() { e.rm = Generate(cfg, seed) })
	return e.rm
}
