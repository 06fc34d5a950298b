package routing

// adoptTimersGo is the Spray-and-Focus transitive timer merge in plain Go:
// for every k < len(peer), seen[k] becomes peer[k]-penalty when that is
// strictly greater. NaN on either side and equal values (±0 included)
// keep seen[k]. It is adoptTimers on architectures without a kernel and
// the oracle the kernel is tested against.
func adoptTimersGo(seen, peer []float64, penalty float64) {
	seen = seen[:len(peer)]
	for k, ts := range peer {
		if adopted := ts - penalty; adopted > seen[k] {
			seen[k] = adopted
		}
	}
}
