package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/metrics"
)

// gossipScenario is a contact-dense bus world small enough to run all
// (protocol × store × exchange-mode) combinations in one test budget. The
// window is long enough that pairs re-meet many times — CR's
// community-scoped exchange needs ~3000 s before delta's digest overhead
// amortises below the flood. maxRows > 0 caps every estimator store.
func gossipScenario(p Protocol, maxRows int) Scenario {
	s := Default()
	s.Protocol = p
	s.Nodes = 30
	s.Duration = 3000
	s.Tick = 0.5
	s.MaxSparseRows = maxRows
	return s
}

// zeroGossip blanks the gossip-volume fields so summaries can be compared
// on routing outcomes alone.
func zeroGossip(s metrics.Summary) metrics.Summary {
	s.GossipRows, s.GossipEntries, s.GossipBytes, s.GossipDigestBytes = 0, 0, 0, 0
	return s
}

// TestGossipModeParity is the exchange-mode contract: fresher, flood and
// delta are *metering* policies over one merge algorithm, so for every
// estimator-backed protocol they must produce bit-identical summaries
// outside the gossip-volume fields — with stores that hold every row
// ("dense") and with stores capped below the population ("sparse"), whose
// evictions force delta's full-digest fallback. Within them: delta ships
// exactly the rows fresher counts (plus a metered digest), and flood
// never undercuts fresher.
func TestGossipModeParity(t *testing.T) {
	for _, p := range []Protocol{EER, CR, MaxProp} {
		for _, sc := range []struct {
			name    string
			maxRows int
		}{{"dense", 0}, {"sparse", 8}} {
			t.Run(string(p)+"/"+sc.name, func(t *testing.T) {
				base := gossipScenario(p, sc.maxRows)
				sums := map[string]metrics.Summary{}
				for _, mode := range []string{"fresher", "flood", "delta"} {
					s := base
					s.Gossip = mode
					sums[mode] = s.Run()
				}
				fresher := sums["fresher"]
				for _, mode := range []string{"flood", "delta"} {
					if got := zeroGossip(sums[mode]); got != zeroGossip(fresher) {
						t.Errorf("%s diverged from fresher outside gossip fields:\n  fresher %+v\n  %s %+v",
							mode, fresher, mode, sums[mode])
					}
				}
				delta, flood := sums["delta"], sums["flood"]
				if delta.GossipRows != fresher.GossipRows || delta.GossipEntries != fresher.GossipEntries {
					t.Errorf("delta shipped %d rows/%d entries, fresher counted %d/%d — watermarks missed or re-sent a row",
						delta.GossipRows, delta.GossipEntries, fresher.GossipRows, fresher.GossipEntries)
				}
				if delta.GossipDigestBytes == 0 {
					t.Error("delta metered no digest bytes — the exchange is not honest about its overhead")
				}
				if fresher.GossipDigestBytes != 0 || flood.GossipDigestBytes != 0 {
					t.Error("fresher/flood metered digest bytes — only delta trades digests")
				}
				if flood.GossipBytes < fresher.GossipBytes {
					t.Errorf("flood (%d B) under fresher (%d B)", flood.GossipBytes, fresher.GossipBytes)
				}
				if delta.GossipBytes >= flood.GossipBytes {
					t.Errorf("delta (%d B) did not beat flood (%d B) on a contact-dense scenario",
						delta.GossipBytes, flood.GossipBytes)
				}
			})
		}
	}
}

// TestDeltaGossipReduction pins the headline number so it cannot silently
// regress: on a long fixed bus scenario — stores saturated, pairs
// re-meeting for hours — delta gossip moves >= 10x fewer metered bytes
// than the flooding exchange, digests and row requests included.
//
// The scenario is chosen where anti-entropy genuinely pays: repeat
// meetings with modest churn in between. City mobility at 10k+ nodes
// saturates near 3x total — between two meetings of the same pair almost
// the whole store churns, so the (honestly metered) digest approaches the
// flood itself in row count, if not in bytes; DESIGN.md works the numbers.
func TestDeltaGossipReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20000 s simulations in -short mode")
	}
	base := Default()
	base.Protocol = MaxProp
	base.Duration = 20000
	base.Tick = 0.5
	bytes := map[string]int{}
	for _, mode := range []string{"flood", "delta"} {
		s := base
		s.Gossip = mode
		sum := s.Run()
		if sum.GossipBytes == 0 {
			t.Fatalf("%s metered no gossip bytes", mode)
		}
		bytes[mode] = sum.GossipBytes
	}
	ratio := float64(bytes["flood"]) / float64(bytes["delta"])
	t.Logf("flood %d B, delta %d B: %.2fx reduction", bytes["flood"], bytes["delta"], ratio)
	// Gate raised from 10x when digest stamps went varint (measured
	// ~11.7x on this scenario, ~11.2x under the fixed 12 B entries).
	if ratio < 11 {
		t.Errorf("delta gossip reduction %.2fx, want >= 11x (flood %d B, delta %d B)",
			ratio, bytes["flood"], bytes["delta"])
	}
}

// TestMetroScaleSmartProtocols is the acceptance gate of the MetroScale
// preset: the paper's contribution protocols (EER, CR) and MaxProp must
// tick a 100k-node metropolitan world — sub-grid sharding keeps the tick
// parallel, the sparse core keeps estimator state o(n²), and delta gossip
// keeps the metered exchange volume honest. A short window keeps the test
// inside `go test` budgets; contacts at this density arrive within seconds.
func TestMetroScaleSmartProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node worlds in -short mode")
	}
	for _, p := range []Protocol{EER, CR, MaxProp} {
		t.Run(string(p), func(t *testing.T) {
			s := MetroScale()
			s.Protocol = p
			s.Duration = 10
			w, runner := s.Build()
			if w.N() < 100000 {
				t.Fatalf("metro scale shrank: %d nodes", w.N())
			}
			runner.Run(s.Duration)
			sum := w.Metrics.Summary()
			if sum.Contacts == 0 {
				t.Fatal("no contacts in a 100k-node metro window")
			}
			if sum.Generated == 0 {
				t.Fatal("no traffic generated")
			}
			if sum.GossipBytes > 0 && sum.GossipDigestBytes == 0 {
				t.Error("MetroScale gossips without digest accounting — delta preset not applied")
			}
		})
	}
}

// BenchmarkMetroScale measures tick throughput of the 100k-node metro
// world, one worker versus one worker per core. CI's bench-smoke job runs
// this at one iteration so the 100k path cannot silently rot.
func BenchmarkMetroScale(b *testing.B) {
	for _, shards := range []int{0, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := MetroScale()
			s.Shards = shards
			w, runner := s.Build()
			runner.Run(2) // warm up: first contacts, wheel, scratch sizing
			start := runner.Now()
			b.ResetTimer()
			runner.Run(start + float64(b.N)*s.Tick)
			b.StopTimer()
			if w.N() < 100000 {
				b.Fatalf("metro scale shrank: %d nodes", w.N())
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
}

// BenchmarkMetroShardScaling sweeps the shard count on the metro world so
// the scaling curve of the sub-grid reconciliation is visible on multicore
// hardware (summaries stay bit-identical at every point — the sharding
// parity suites pin that).
func BenchmarkMetroShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := MetroScale()
			s.Shards = shards
			w, runner := s.Build()
			runner.Run(2)
			start := runner.Now()
			b.ResetTimer()
			runner.Run(start + float64(b.N)*s.Tick)
			b.StopTimer()
			if w.N() < 100000 {
				b.Fatalf("metro scale shrank: %d nodes", w.N())
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
}
