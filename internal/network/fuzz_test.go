package network

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/sim"
)

// FuzzGridParity drives the incremental broad phase with fuzz-chosen
// move / teleport / park ("insert") sequences and checks, tick by tick,
// that the engine's contact set equals the naive O(N²) distance sweep —
// for a one-worker world and a two-worker world with narrow sub-grid
// stripes simultaneously, which must additionally agree on link order.
//
// Input layout: data[0] picks the node count, data[1] bit 0 picks
// whether a speed bound is configured and bits 1–2 the grid cell, 1, 2,
// 4 or 8 radio ranges (the cells World.cellSize chooses from). The rest is consumed 3 bytes per
// (tick, node): an opcode plus a dx/dy payload. In bounded mode every op
// is a clamped small move (so the configured MaxSpeed stays truthful);
// in unbounded mode ops include arbitrary teleports and parking far
// outside the arena, which models removal plus re-insertion and is the
// worst case for incremental tracking.

// fuzzPuppet is a mover whose next position the fuzz loop scripts.
type fuzzPuppet struct {
	pos, next geo.Point
}

func (p *fuzzPuppet) Pos() geo.Point         { return p.pos }
func (p *fuzzPuppet) Step(float64) geo.Point { p.pos = p.next; return p.pos }

func FuzzGridParity(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{12, 1, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{20, 0, 2, 250, 5, 2, 5, 250, 3, 0, 0, 3, 1, 1, 0, 40, 40, 1, 200, 200})
	f.Add([]byte{5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Parking and returning empties buckets whose cells share a probe
	// run with live ones: fails unless deletion keeps the run reachable.
	f.Add([]byte("y00000002000x0700000000000000700000700000000000"))
	// Enlarged cells: 8R with a speed bound, 2R with teleports and parks.
	f.Add([]byte{9, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Add([]byte{20, 2, 2, 250, 5, 2, 5, 250, 3, 0, 0, 3, 1, 1, 0, 40, 40, 1, 200, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 4 + int(data[0]%20)
		bounded := data[1]&1 == 1
		cellMult := float64(int(1) << (data[1] >> 1 & 3))
		ops := data[2:]

		cfg := Config{Range: 10, Bandwidth: 1000}
		if bounded {
			// Per-axis steps are clamped to 4 below: speed <= 4*sqrt(2) < 6.
			cfg.MaxSpeed = 6
		}
		twoCfg := cfg
		twoCfg.Shards = 2

		build := func(cfg Config) (*World, *sim.Runner, []*fuzzPuppet) {
			runner := sim.NewRunner(1)
			w := New(cfg, runner)
			puppets := make([]*fuzzPuppet, n)
			for i := range puppets {
				start := geo.Point{X: float64(i%5) * 7, Y: float64(i/5) * 7}
				puppets[i] = &fuzzPuppet{pos: start, next: start}
				w.AddNode(puppets[i], buffer.New(0), &probe{})
			}
			w.Start()
			return w, runner, puppets
		}
		ws, rs, ps := build(cfg)
		wp, rp, pp := build(twoCfg)
		forceCell(ws, cellMult)
		forceCell(wp, cellMult)
		// Narrow sub-grid stripes: teleports and even small moves cross
		// region boundaries constantly, stressing the parallel-safe
		// classification and the boundary reconcile on the caller.
		wp.grid.stripe = 4

		signed := func(b byte, scale float64) float64 { return (float64(b) - 128) * scale }
		const maxTicks = 64
		for tick := 1; tick <= maxTicks && len(ops) >= 3*n; tick++ {
			for i := 0; i < n; i++ {
				op, bx, by := ops[0], ops[1], ops[2]
				ops = ops[3:]
				cur := ps[i].next
				var next geo.Point
				switch {
				case bounded || op%4 < 2:
					// Small move; clamp to the bound in bounded mode.
					scale := 5.0 / 128
					if bounded {
						scale = 4.0 / 128
					}
					next = geo.Point{X: cur.X + signed(bx, scale), Y: cur.Y + signed(by, scale)}
				case op%4 == 2:
					// Teleport anywhere in [-100, 100]², negative included.
					next = geo.Point{X: signed(bx, 100.0/128), Y: signed(by, 100.0/128)}
				default:
					// Park far away (node leaves the scenario) or return.
					if cur.X < 5000 {
						next = geo.Point{X: 9000 + float64(i)*1000, Y: -9000}
					} else {
						next = geo.Point{X: float64(i) * 3, Y: 0}
					}
				}
				ps[i].next = next
				pp[i].next = next
			}
			rs.Run(float64(tick))
			rp.Run(float64(tick))
			comparePairSets(t, tick, bruteForcePairs(ws), linkPairs(ws))
			comparePairSets(t, tick, bruteForcePairs(wp), linkPairs(wp))
			checkGrid(t, &ws.grid)
			checkGrid(t, &wp.grid)
			if len(ws.linkList) != len(wp.linkList) {
				t.Fatalf("tick %d: one worker has %d links, two workers %d", tick, len(ws.linkList), len(wp.linkList))
			}
			for x := range ws.linkList {
				a, b := ws.linkList[x], wp.linkList[x]
				if a.a.ID != b.a.ID || a.b.ID != b.b.ID {
					t.Fatalf("tick %d: link order diverged at %d: (%d,%d) vs (%d,%d)",
						tick, x, a.a.ID, a.b.ID, b.a.ID, b.b.ID)
				}
			}
		}
	})
}

// FuzzGridTable drives one region table with fuzz-chosen add / drop
// operations against a map oracle, checking the whole table and looking
// up every pool cell after every operation. The key pool holds clusters of cells that all hash to
// the last slots of a 256- and a 512-slot table, so probe runs wrap the
// table end and backward-shift deletion has to move entries across it,
// plus a block of nearby cells that pushes the table through growth.
//
// Input layout: 2 bytes per operation, at most gridTableMaxOps of them.
// The first byte's low 2 bits pick add (0, 1), drop (2) or a bare check
// (3), and its high 6 bits a node id (add) or an index into the cell's
// bucket (drop); the second byte picks the key.
func FuzzGridTable(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 8, 2, 0, 3, 2, 0, 3, 1, 3, 2, 2, 1, 3, 3})
	f.Add([]byte{0, 16, 0, 17, 0, 18, 0, 19, 2, 16, 3, 17, 3, 18, 3, 19, 0, 20, 2, 17, 3, 20})
	// Fill the wrapping clusters, drop every fifth cell and look up its
	// successor, then add enough cells to grow the table.
	var wrap []byte
	for k := 0; k < 32; k++ {
		wrap = append(wrap, byte(k)<<2, byte(k))
	}
	for k := 0; k < 32; k += 5 {
		wrap = append(wrap, 2, byte(k), 3, byte(k+1))
	}
	for k := 32; k < 100; k++ {
		wrap = append(wrap, byte(k%64)<<2, byte(k))
	}
	f.Add(wrap)
	pool := gridTablePool()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*gridTableMaxOps {
			data = data[:2*gridTableMaxOps]
		}
		var tb gridTable
		tb.resize(gridInitialSlots)
		oracle := map[uint64][]int32{}
		for ; len(data) >= 2; data = data[2:] {
			op, key := data[0], pool[int(data[1])%len(pool)]
			arg := int32(op >> 2)
			list := oracle[key]
			switch op & 3 {
			case 0, 1:
				k := 0
				for k < len(list) && list[k] < arg {
					k++
				}
				if k < len(list) && list[k] == arg {
					continue
				}
				list = append(list[:k], append([]int32{arg}, list[k:]...)...)
				oracle[key] = list
				tb.add(key, arg)
			case 2:
				if len(list) == 0 {
					continue
				}
				k := int(arg) % len(list)
				tb.drop(key, list[k])
				list = append(list[:k], list[k+1:]...)
				if len(list) == 0 {
					delete(oracle, key)
				} else {
					oracle[key] = list
				}
			}
			checkTable(t, &tb, oracle, pool)
		}
	})
}

// gridTableMaxOps caps one FuzzGridTable input, so the fuzzer spends its
// time mutating rather than minimising long inputs.
const gridTableMaxOps = 128

// gridTablePool returns FuzzGridTable's keys: 16 cells homed at each of
// slots 254 and 255 of a 256-slot table, 16 homed at slot 511 of a
// 512-slot table, and a 12×12 block of cells around the origin.
func gridTablePool() []uint64 {
	var pool []uint64
	for _, c := range []struct {
		size  int
		homes []uint32
	}{{256, []uint32{254, 255}}, {512, []uint32{511}}} {
		var tb gridTable
		tb.resize(c.size)
		for _, h := range c.homes {
			found := 0
			for cx := int32(0); found < 16; cx++ {
				for cy := int32(-64); cy < 64 && found < 16; cy++ {
					if key := cellKeyOf(cx, cy); tb.home(key) == h {
						pool = append(pool, key)
						found++
					}
				}
			}
		}
	}
	for cx := int32(-6); cx < 6; cx++ {
		for cy := int32(-6); cy < 6; cy++ {
			pool = append(pool, cellKeyOf(cx, cy))
		}
	}
	return pool
}

// checkTable compares a table with its oracle: checkSlots, no deleted
// cell left in a slot, and every pool cell's lookup (a miss when absent).
func checkTable(t *testing.T, tb *gridTable, oracle map[uint64][]int32, pool []uint64) {
	t.Helper()
	for _, s := range checkSlots(t, tb) {
		if _, ok := oracle[s.key]; !ok {
			t.Fatalf("table holds deleted cell %#x", s.key)
		}
	}
	if tb.used != len(oracle) {
		t.Fatalf("used = %d, oracle holds %d cells", tb.used, len(oracle))
	}
	for _, key := range pool {
		got, want := tb.lookup(key), oracle[key]
		if len(got) != len(want) {
			t.Fatalf("cell %#x: lookup %v, want %v", key, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("cell %#x: lookup %v, want %v", key, got, want)
			}
		}
	}
}
