package routing

import (
	"fmt"

	"dxbar/internal/flit"
)

// MinimalAdaptive is fully-adaptive minimal routing without turn
// restrictions: both minimal directions toward the destination, the
// larger-offset dimension first. SCARAB uses it (bufferless drop networks
// cannot deadlock, so no turn model is needed).
type MinimalAdaptive struct{}

// Name implements Algorithm.
func (MinimalAdaptive) Name() string { return "MIN" }

// Adaptive implements Algorithm.
func (MinimalAdaptive) Adaptive() bool { return true }

// Productive implements Algorithm.
func (MinimalAdaptive) Productive(m Mesh, at, dst int) PortList {
	ax, ay := m.XY(at)
	dx, dy := m.XY(dst)
	var xPort, yPort flit.Port = flit.Invalid, flit.Invalid
	if dx > ax {
		xPort = flit.East
	} else if dx < ax {
		xPort = flit.West
	}
	if dy > ay {
		yPort = flit.South
	} else if dy < ay {
		yPort = flit.North
	}
	first, second := xPort, yPort
	if abs(dx-ax) < abs(dy-ay) {
		first, second = yPort, xPort
	}
	var ports PortList
	for _, p := range [2]flit.Port{first, second} {
		if p != flit.Invalid {
			ports.Add(p)
		}
	}
	return ports
}

// Table is a routing algorithm compiled for one mesh: the data-oriented form
// of the Algorithm interface. DOR, WF and MIN choose ports by the offset
// class of the destination alone — sign(dx), sign(dy) and whether
// |dx| >= |dy| (WF and MIN put the larger offset first) — so the table keeps
// only each node's coordinates and port mask (O(N)), one packed productive
// list per class and one packed deflection order per (port mask, class). A
// list packs into a uint16: four 3-bit port entries plus a 3-bit length. A
// routing query on the cycle hot path is two node loads, a few shifts and
// one load from a class table (64 B productive, 1 KB deflection).
//
// A Table is itself an Algorithm (the mesh argument of the interface methods
// is ignored — the table was built for one mesh), so it drops into every
// router constructor unchanged. It is immutable after construction and safe
// to share across all routers of a network and across shard workers.
type Table struct {
	algo  Algorithm
	nodes []tableNode
	masks []uint8                       // bit p set when the node has cardinal port p
	prod  [numClasses]uint16            // by class; the empty list keeps Local in slot 0
	defl  [numMasks * numClasses]uint16 // by mask<<5 | class
}

const numClasses, numMasks = 32, 1 << flit.NumLinkPorts

type tableNode struct {
	x, y uint32 // coordinates; differences wrap to two's complement
}

// class returns the 5-bit offset class of dst seen from at, branch-free from
// sign bits: bit 0 dx<0, bit 1 dx>0, bit 2 dy<0, bit 3 dy>0, bit 4 |dx|<|dy|
// (as dx² < dy², exact for coordinates below 46341).
func class(at, dst tableNode) uint {
	dx, dy := dst.x-at.x, dst.y-at.y
	return uint(dx>>31 | -dx>>31<<1 | dy>>31<<2 | -dy>>31<<3 | (dx*dx-dy*dy)>>31<<4)
}

// packList packs a PortList into 16 bits: length in bits 12..14, entry i in
// bits 3i..3i+2. Lists only ever hold cardinal ports (values 0..3).
func packList(l PortList) uint16 {
	v := uint16(l.n) << 12
	for i := 0; i < l.n; i++ {
		v |= uint16(l.ports[i]) << uint(3*i)
	}
	return v
}

func unpackList(v uint16) PortList {
	// Branch-free decode: mask the packed word down to its n live 3-bit
	// fields, then unpack all four slots; dead slots decode as zero.
	var l PortList
	n := int(v >> 12)
	w := uint32(v) & (0xFFF >> uint(12-3*n))
	l.n = n
	l.ports[0] = flit.Port(w & 7)
	l.ports[1] = flit.Port(w >> 3 & 7)
	l.ports[2] = flit.Port(w >> 6 & 7)
	l.ports[3] = flit.Port(w >> 9 & 7)
	return l
}

// classMesh is a 5×5 mesh whose every node has the ports in the mask. Its
// offsets from the centre node 12 cover every class with a representative.
type classMesh uint8

func (classMesh) XY(n int) (x, y int)               { return n % 5, n / 5 }
func (m classMesh) HasPort(_ int, p flit.Port) bool { return m&(1<<p) != 0 }

// NewTable compiles algo for the nodes of m by evaluating it once per class
// (and port mask); algo must route by offset class alone. If algo is already
// a *Table it is returned as-is, so constructors may wrap unconditionally.
func NewTable(algo Algorithm, m Mesh, nodes int) *Table {
	if t, ok := algo.(*Table); ok {
		return t
	}
	if nodes <= 0 {
		panic(fmt.Sprintf("routing: table needs a positive node count, got %d", nodes))
	}
	t := &Table{algo: algo, nodes: make([]tableNode, nodes), masks: make([]uint8, nodes)}
	for n := range t.nodes {
		x, y := m.XY(n)
		t.nodes[n] = tableNode{x: uint32(x), y: uint32(y)}
		for p := flit.North; p <= flit.West; p++ {
			if m.HasPort(n, p) {
				t.masks[n] |= 1 << p
			}
		}
	}
	for dst := 0; dst < 25; dst++ {
		c := class(tableNode{x: 2, y: 2}, tableNode{x: uint32(dst % 5), y: uint32(dst / 5)})
		if t.prod[c] = packList(algo.Productive(classMesh(0), 12, dst)); t.prod[c] == 0 {
			t.prod[c] = uint16(flit.Local)
		}
		for mask := 0; mask < numMasks; mask++ {
			t.defl[mask<<5|int(c)] = packList(DeflectionOrder(algo, classMesh(mask), 12, dst))
		}
	}
	return t
}

// Name implements Algorithm (the underlying algorithm's name).
func (t *Table) Name() string { return t.algo.Name() }

// Adaptive implements Algorithm.
func (t *Table) Adaptive() bool { return t.algo.Adaptive() }

// Productive implements Algorithm; the mesh argument is ignored.
func (t *Table) Productive(_ Mesh, at, dst int) PortList { return t.ProductiveAt(at, dst) }

// ProductiveAt is the table-native productive query (no interface, no mesh).
func (t *Table) ProductiveAt(at, dst int) PortList {
	return unpackList(t.prod[class(t.nodes[at], t.nodes[dst])%numClasses])
}

// RequestAt is the look-ahead routing decision at node `at`: the preferred
// productive port, or Local when the flit has arrived.
func (t *Table) RequestAt(at, dst int) flit.Port {
	return flit.Port(t.prod[class(t.nodes[at], t.nodes[dst])%numClasses] & 7)
}

// DeflectionAt is the table-native deflection-order query.
func (t *Table) DeflectionAt(at, dst int) PortList {
	return unpackList(t.defl[(uint(t.masks[at])<<5|class(t.nodes[at], t.nodes[dst]))%(numMasks*numClasses)])
}

// ProductiveLenAt returns the size of the productive set without unpacking
// the list (deflection routers compare a rank against it).
func (t *Table) ProductiveLenAt(at, dst int) int {
	return int(t.prod[class(t.nodes[at], t.nodes[dst])%numClasses] >> 12)
}
