package main

// scale fixes the input sizes of every workload. The benchmark runs
// fullScale; tests run a toy scale through the same code.
type scale struct {
	gate bool // compare outputs with the seed-1 reference (full scale only)

	paperNodes     int
	paperDuration  float64 // simulated seconds per cell
	paperWarmup    float64 // simulated seconds of each set-up warm-up cell
	paperWorlds    int     // rounds cycle over the world seeds seed..seed+paperWorlds-1
	paperMinRounds int

	cityNodes    int     // 0 keeps the CityScale preset's fleet
	cityDuration float64 // simulated seconds per rep
	cityWarmup   float64 // simulated seconds of the set-up warm-up
	cityMinReps  int

	sweepNodes     int
	sweepDuration  float64
	sweepWarmup    float64 // simulated seconds of the set-up warm-up sweep
	sweepSeeds     int     // each cell runs seeds seed..seed+sweepSeeds-1
	sweepMinPasses int

	dtndRate     float64   // open-loop rate (req/s) whose median latency is op_ms
	dtndLadder   []float64 // further open-loop rates probed for loadgen.max_rate_ok
	dtndWarmReqs int       // cached requests per set-up to open connections and fill pools
}

// fullScale is the benchmark. Sizes are chosen so that every workload
// repeats its op several times within run_seconds on a 2-vCPU machine,
// and paper-live runs long enough for estimator state to dominate.
var fullScale = scale{
	gate: true,

	paperNodes:     240,
	paperDuration:  1000,
	paperWarmup:    200,
	paperWorlds:    4,
	paperMinRounds: 8,

	cityDuration: 600,
	cityWarmup:   100,
	cityMinReps:  3,

	sweepNodes:     240,
	sweepDuration:  1000,
	sweepWarmup:    150,
	sweepSeeds:     4,
	sweepMinPasses: 3,

	dtndRate:     2000,
	dtndLadder:   []float64{4000, 8000},
	dtndWarmReqs: 1000,
}
