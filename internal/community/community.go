// Package community assigns nodes to communities. The paper predefines
// communities in its evaluation ("for simplicity"); here the bus-line
// districts of the generated map play that role.
package community

import "fmt"

// Registry is an immutable node→community assignment.
type Registry struct {
	of      []int
	members [][]int
}

// New builds a registry from a node→community id slice. Community ids must
// be dense, starting at 0.
func New(of []int) *Registry {
	max := -1
	for _, c := range of {
		if c < 0 {
			panic("community: negative community id")
		}
		if c > max {
			max = c
		}
	}
	r := &Registry{of: append([]int(nil), of...), members: make([][]int, max+1)}
	for node, c := range r.of {
		r.members[c] = append(r.members[c], node)
	}
	for c, m := range r.members {
		if len(m) == 0 {
			panic(fmt.Sprintf("community: community %d has no members (ids must be dense)", c))
		}
	}
	return r
}

// Of returns the community id of node.
func (r *Registry) Of(node int) int { return r.of[node] }

// Members returns the member node ids of community c (shared; do not
// mutate).
func (r *Registry) Members(c int) []int { return r.members[c] }

// Communities returns the member list of every community (shared).
func (r *Registry) Communities() [][]int { return r.members }

// Count returns the number of communities.
func (r *Registry) Count() int { return len(r.members) }

// N returns the number of nodes.
func (r *Registry) N() int { return len(r.of) }

// Same reports whether two nodes share a community.
func (r *Registry) Same(a, b int) bool { return r.of[a] == r.of[b] }

// FromAssigner builds a registry for n nodes with a node→community
// function — used with mapgen.RoadMap.DistrictOfNode.
func FromAssigner(n int, of func(node int) int) *Registry {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = of(i)
	}
	return New(compact(ids))
}

// compact renumbers community ids densely, preserving order of first
// appearance.
func compact(ids []int) []int {
	seen := map[int]int{}
	out := make([]int, len(ids))
	for i, c := range ids {
		d, ok := seen[c]
		if !ok {
			d = len(seen)
			seen[c] = d
		}
		out[i] = d
	}
	return out
}
