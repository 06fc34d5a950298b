package routing

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/network"
)

// RefreshCost exposes the path-cost recomputation to the external
// benchmarks, which need a full world (and so the experiment package).
func (r *MaxProp) RefreshCost() { r.refreshCost() }

// CostWork returns how often the router validated its cost cache — the
// Dijkstras an eager refresh would run — and how many it actually ran.
func (r *MaxProp) CostWork() (validations, runs int) { return r.costValidations, r.costRuns }

// meetingLayer returns the meeting layer of an EER or CR router.
func meetingLayer(r network.Router) *meeting {
	switch r := r.(type) {
	case *EER:
		return &r.meeting
	case *CR:
		return &r.meeting
	}
	panic(fmt.Sprintf("routing: %T runs no meeting layer", r))
}

// OnMEMDStart makes the routers of r's factory call f whenever a contact
// side's MEMD inputs freeze, with the side's node, meeting time, history
// and MI store as they freeze.
func OnMEMDStart(r network.Router, f func(self int, t0 float64, h *core.History, mi *core.MeetingMatrix)) {
	meetingLayer(r).shared.started = func(m *meeting, st *contact) {
		f(m.Self.ID, st.t0, m.hist, m.mi)
	}
}

// MEMDSettles returns how many vertices the MEMD kernel of r's factory has
// settled.
func MEMDSettles(r network.Router) int64 { return meetingLayer(r).shared.memd.Settles() }
