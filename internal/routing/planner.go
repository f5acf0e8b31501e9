package routing

import "surfnet/internal/network"

// Planner is the resident control plane's scheduler: ScheduleLP bound to one
// set of routing parameters. It plans every call cold and keeps nothing
// between calls, so it is safe for concurrent use. A warm start from the
// previous epoch's basis does not pay on daemon traffic: the basis applies
// only to an LP with the same rows whose vertex stays feasible for the new
// right-hand side, and epoch request sets change every epoch (DESIGN §12).
type Planner struct {
	params Params
}

// NewPlanner returns a planner scheduling with the given parameters.
func NewPlanner(p Params) *Planner { return &Planner{params: p} }

// WarmStats reports zero warm-start hits and misses: the planner plans cold.
// It stays only while the surfbench replay calls it.
func (pl *Planner) WarmStats() (hits, misses int64) { return 0, 0 }

// Plan schedules reqs on net exactly as ScheduleLP does with the planner's
// parameters.
func (pl *Planner) Plan(net *network.Network, reqs []network.Request) (Schedule, error) {
	return ScheduleLP(net, reqs, pl.params)
}
