package routing

// RefreshCost exposes the path-cost recomputation to the external
// benchmarks, which need a full world (and so the experiment package).
func (r *MaxProp) RefreshCost() { r.refreshCost() }

// CostWork returns how often the router validated its cost cache — the
// Dijkstras an eager refresh would run — and how many it actually ran.
func (r *MaxProp) CostWork() (validations, runs int) { return r.costValidations, r.costRuns }
