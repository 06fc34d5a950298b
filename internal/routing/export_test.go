package routing

// RefreshCost exposes the path-cost recomputation to the external
// benchmarks, which need a full world (and so the experiment package).
func (r *MaxProp) RefreshCost() { r.refreshCost() }
