package routing

// adoptTimers merges peer's timers into seen, two lanes per step (see
// adopt_amd64.s); its result is bit-identical to adoptTimersGo.
func adoptTimers(seen, peer []float64, penalty float64) {
	adoptTimersSSE2(seen[:len(peer)], peer, penalty)
}

// adoptTimersSSE2 requires len(seen) >= len(peer).
//
//go:noescape
func adoptTimersSSE2(seen, peer []float64, penalty float64)
