//go:build !amd64

package routing

// adoptTimers merges peer's timers into seen; see adoptTimersGo.
func adoptTimers(seen, peer []float64, penalty float64) {
	adoptTimersGo(seen, peer, penalty)
}
