// Package routing implements the two routing algorithms the paper evaluates:
// DOR (dimension-ordered XY) and WF (west-first minimal adaptive), plus the
// productive-port machinery shared by the deflection (Flit-Bless), drop
// (SCARAB) and DXbar routers.
//
// Both algorithms are minimal. WF follows the west-first turn model: a packet
// that must travel west completes all of its westward hops first; afterwards
// it may adaptively pick any remaining productive direction (no turn back to
// west ever occurs). The turn model is deadlock-free on a mesh without
// virtual channels, which matters because the paper's routers have none.
package routing

import (
	"fmt"

	"dxbar/internal/flit"
)

// PortList is a fixed-capacity ordered set of cardinal ports returned by
// routing queries. It is a value type so the per-flit-per-cycle routing
// calls on the simulator's hot path allocate nothing.
type PortList struct {
	ports [flit.NumLinkPorts]flit.Port
	n     int
}

// Ports builds a PortList from the given ports in order.
func Ports(ps ...flit.Port) PortList {
	var l PortList
	for _, p := range ps {
		l.Add(p)
	}
	return l
}

// Add appends a port (panics past NumLinkPorts entries).
func (l *PortList) Add(p flit.Port) {
	l.ports[l.n] = p
	l.n++
}

// Len returns the number of ports in the list.
func (l PortList) Len() int { return l.n }

// At returns the i-th port in preference order.
func (l PortList) At(i int) flit.Port { return l.ports[i] }

// Contains reports whether p is in the list.
func (l PortList) Contains(p flit.Port) bool {
	for i := 0; i < l.n; i++ {
		if l.ports[i] == p {
			return true
		}
	}
	return false
}

// Slice returns the ports as a slice backed by the list's array (valid while
// l is alive; useful in tests).
func (l *PortList) Slice() []flit.Port { return l.ports[:l.n] }

// Algorithm selects output ports for flits.
type Algorithm interface {
	// Name returns the short name used in reports ("DOR", "WF").
	Name() string
	// Productive returns the set of output ports at node `at` that move a
	// flit closer to dst *and* are permitted by the algorithm's turn rules,
	// in preference order (most preferred first). An empty set means the
	// flit has arrived (at == dst) and must use the Local port.
	Productive(m Mesh, at, dst int) PortList
	// Adaptive reports whether the algorithm permits choosing among multiple
	// productive ports (WF) or mandates a single one (DOR).
	Adaptive() bool
}

// Mesh is the topology interface the algorithms need. *topology.Mesh
// satisfies it; tests can substitute small fakes.
type Mesh interface {
	XY(n int) (x, y int)
	HasPort(n int, p flit.Port) bool
}

// New returns the algorithm with the given name ("DOR" or "WF").
func New(name string) (Algorithm, error) {
	switch name {
	case "DOR", "dor", "XY", "xy":
		return DOR{}, nil
	case "WF", "wf", "west-first":
		return WestFirst{}, nil
	}
	return nil, fmt.Errorf("routing: unknown algorithm %q", name)
}

// DOR is deterministic dimension-ordered (XY) routing: resolve the X offset
// completely, then the Y offset.
type DOR struct{}

// Name implements Algorithm.
func (DOR) Name() string { return "DOR" }

// Adaptive implements Algorithm.
func (DOR) Adaptive() bool { return false }

// Productive implements Algorithm. For DOR the set has at most one element.
func (DOR) Productive(m Mesh, at, dst int) PortList {
	ax, ay := m.XY(at)
	dx, dy := m.XY(dst)
	switch {
	case dx < ax:
		return Ports(flit.West)
	case dx > ax:
		return Ports(flit.East)
	case dy < ay:
		return Ports(flit.North)
	case dy > ay:
		return Ports(flit.South)
	}
	return PortList{}
}

// WestFirst is the west-first minimal adaptive turn model.
type WestFirst struct{}

// Name implements Algorithm.
func (WestFirst) Name() string { return "WF" }

// Adaptive implements Algorithm.
func (WestFirst) Adaptive() bool { return true }

// Productive implements Algorithm. If the destination lies to the west the
// only legal move is West; otherwise every productive direction among
// {East, North, South} is legal. The preference order puts the dimension
// with the larger remaining offset first, which spreads load without
// violating minimality.
func (WestFirst) Productive(m Mesh, at, dst int) PortList {
	ax, _ := m.XY(at)
	if dx, _ := m.XY(dst); dx < ax {
		return Ports(flit.West)
	}
	// With no westward offset left, the legal set is the minimal one.
	return MinimalAdaptive{}.Productive(m, at, dst)
}

// Request is the look-ahead routing decision for a flit about to enter node
// `at`: the single preferred output port. Flits that have arrived get Local.
func Request(a Algorithm, m Mesh, at, dst int) flit.Port {
	ports := a.Productive(m, at, dst)
	if ports.Len() == 0 {
		return flit.Local
	}
	return ports.At(0)
}

// DeflectionOrder ranks all four cardinal ports of node `at` for a flit bound
// for dst: productive ports (in algorithm preference order) first, then the
// remaining existing ports in fixed N,E,S,W order. Deflection routers use it
// to pick the least-bad port when the productive ones are taken. Ports that
// face the mesh edge are excluded entirely.
func DeflectionOrder(a Algorithm, m Mesh, at, dst int) PortList {
	prod := a.Productive(m, at, dst)
	var order PortList
	for i := 0; i < prod.Len(); i++ {
		if p := prod.At(i); m.HasPort(at, p) {
			order.Add(p)
		}
	}
	for p := flit.North; p <= flit.West; p++ {
		if !prod.Contains(p) && m.HasPort(at, p) {
			order.Add(p)
		}
	}
	return order
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
