package experiment

import (
	"fmt"
	"runtime"
	"testing"
)

// smallCity returns a CityScale-shaped scenario shrunk to test size: the
// same metropolitan map and bus/walker mobility mix, far fewer nodes.
func smallCity(nodes int) Scenario {
	s := CityScale()
	s.Nodes = nodes
	s.Duration = 300
	return s
}

// TestCityMobilitySmoke proves the "city" mobility model wires up: buses
// and walkers move, meet and deliver across the metropolitan map.
func TestCityMobilitySmoke(t *testing.T) {
	s := smallCity(120)
	s.Protocol = Epidemic
	s.Duration = 600
	sum := s.Run()
	if sum.Generated == 0 {
		t.Fatal("city scenario generated no traffic")
	}
	if sum.Contacts == 0 {
		t.Fatal("city scenario produced no contacts — walkers or buses not moving")
	}
}

// TestShardParityScenarios is the scenario-level half of the sharding
// parity suite: full protocol stacks over bus, random-waypoint and city
// mobility must produce bit-identical summaries for Shards ∈ {0, 1, 2, 8}.
func TestShardParityScenarios(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
	}{
		{"bus-EER", func() Scenario {
			s := Quick()
			s.Nodes = 30
			s.Duration = 600
			return s
		}()},
		{"rwp-SprayAndWait", func() Scenario {
			s := Quick()
			s.Nodes = 30
			s.Duration = 600
			s.Mobility = "rwp"
			s.Protocol = SprayAndWait
			return s
		}()},
		{"city-Epidemic", func() Scenario {
			s := smallCity(80)
			s.Protocol = Epidemic
			return s
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.s
			ref.Shards = 0
			want := ref.Run()
			for _, shards := range []int{1, 2, 8} {
				sc := tc.s
				sc.Shards = shards
				if got := sc.Run(); got != want {
					t.Fatalf("Shards=%d diverged from Shards=0:\n  Shards=0  %+v\n  Shards=%d  %+v", shards, want, shards, got)
				}
			}
		})
	}
}

// BenchmarkCityScale measures tick throughput of one >=10k-node city
// world, one worker versus one worker per core. The sharded run must be
// bit-identical (TestShardParityScenarios pins that at test scale); this
// benchmark exists to show the throughput win on multicore hardware.
func BenchmarkCityScale(b *testing.B) {
	for _, shards := range []int{0, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := CityScale()
			s.Shards = shards
			w, runner := s.Build()
			runner.Run(5) // warm up: first contacts, wheel, scratch sizing
			start := runner.Now()
			b.ResetTimer()
			runner.Run(start + float64(b.N)*s.Tick)
			b.StopTimer()
			if w.N() < 10000 {
				b.Fatalf("city scale shrank: %d nodes", w.N())
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
}
