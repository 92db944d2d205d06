package routing_test

import (
	"runtime"
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/topology"
)

func portsEqual(a, b routing.PortList) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

var tableAlgos = []routing.Algorithm{routing.DOR{}, routing.WestFirst{}, routing.MinimalAdaptive{}}

// checkTableEntry compares every table query for (at, dst) against the
// direct Algorithm computation, the oracle the class table must reproduce.
func checkTableEntry(t *testing.T, tab *routing.Table, a routing.Algorithm, m *topology.Mesh, at, dst int) {
	t.Helper()
	wantProd := a.Productive(m, at, dst)
	if got := tab.ProductiveAt(at, dst); !portsEqual(got, wantProd) {
		t.Fatalf("%s %dx%d at=%d dst=%d: productive %v, want %v",
			a.Name(), m.Width, m.Height, at, dst, got.Slice(), wantProd.Slice())
	}
	if got := tab.Productive(m, at, dst); !portsEqual(got, wantProd) {
		t.Fatalf("%s: interface Productive diverges at (%d,%d)", a.Name(), at, dst)
	}
	if got, want := tab.RequestAt(at, dst), routing.Request(a, m, at, dst); got != want {
		t.Fatalf("%s %dx%d at=%d dst=%d: request %v, want %v", a.Name(), m.Width, m.Height, at, dst, got, want)
	}
	wantDefl := routing.DeflectionOrder(a, m, at, dst)
	if got := tab.DeflectionAt(at, dst); !portsEqual(got, wantDefl) {
		t.Fatalf("%s %dx%d at=%d dst=%d: deflection %v, want %v",
			a.Name(), m.Width, m.Height, at, dst, got.Slice(), wantDefl.Slice())
	}
	if got := tab.ProductiveLenAt(at, dst); got != wantProd.Len() {
		t.Fatalf("%s %dx%d at=%d dst=%d: productive len %d, want %d",
			a.Name(), m.Width, m.Height, at, dst, got, wantProd.Len())
	}
}

// TestTableMatchesAlgorithm verifies every (node, destination) pair against
// the direct computation, for all three algorithms on square, thin and
// rectangular meshes — the class table must agree with the algorithm
// everywhere, boundary nodes and |dx| = |dy| ties included.
func TestTableMatchesAlgorithm(t *testing.T) {
	shapes := [][2]int{{2, 2}, {8, 8}, {4, 7}, {2, 9}, {9, 2}, {16, 3}, {5, 5}, {32, 32}}
	for _, wh := range shapes {
		m := topology.MustMesh(wh[0], wh[1])
		for _, a := range tableAlgos {
			tab := routing.NewTable(a, m, m.Nodes())
			if tab.Name() != a.Name() || tab.Adaptive() != a.Adaptive() {
				t.Fatalf("%s: table metadata mismatch", a.Name())
			}
			for at := 0; at < m.Nodes(); at++ {
				for dst := 0; dst < m.Nodes(); dst++ {
					checkTableEntry(t, tab, a, m, at, dst)
				}
			}
		}
	}
}

// TestTableTiesPreferX pins the |dx| = |dy| tie, where the class key's
// |dx| >= |dy| bit decides the order: WF and MIN put the X port first, and
// one step off the diagonal the larger offset leads.
func TestTableTiesPreferX(t *testing.T) {
	m := topology.MustMesh(8, 8)
	at := m.Node(3, 3)
	cases := []struct {
		a        routing.Algorithm
		dst      int
		prod     []flit.Port
		deflTail []flit.Port
	}{
		{routing.WestFirst{}, m.Node(5, 1), []flit.Port{flit.East, flit.North}, []flit.Port{flit.South, flit.West}},
		{routing.WestFirst{}, m.Node(5, 6), []flit.Port{flit.South, flit.East}, []flit.Port{flit.North, flit.West}},
		{routing.WestFirst{}, m.Node(1, 5), []flit.Port{flit.West}, []flit.Port{flit.North, flit.East, flit.South}},
		{routing.MinimalAdaptive{}, m.Node(1, 5), []flit.Port{flit.West, flit.South}, []flit.Port{flit.North, flit.East}},
		{routing.MinimalAdaptive{}, m.Node(0, 0), []flit.Port{flit.West, flit.North}, []flit.Port{flit.East, flit.South}},
		{routing.MinimalAdaptive{}, m.Node(2, 5), []flit.Port{flit.South, flit.West}, []flit.Port{flit.North, flit.East}},
		{routing.DOR{}, m.Node(5, 5), []flit.Port{flit.East}, []flit.Port{flit.North, flit.South, flit.West}},
	}
	for _, c := range cases {
		tab := routing.NewTable(c.a, m, m.Nodes())
		want := routing.Ports(append(append([]flit.Port{}, c.prod...), c.deflTail...)...)
		if got := tab.DeflectionAt(at, c.dst); !portsEqual(got, want) {
			t.Errorf("%s dst=%d: deflection %v, want %v", c.a.Name(), c.dst, got.Slice(), want.Slice())
		}
		if got := tab.ProductiveLenAt(at, c.dst); got != len(c.prod) {
			t.Errorf("%s dst=%d: productive len %d, want %d", c.a.Name(), c.dst, got, len(c.prod))
		}
		checkTableEntry(t, tab, c.a, m, at, c.dst)
	}
}

// FuzzTableMatchesAlgorithm checks single (at, dst) queries on arbitrary
// mesh shapes up to 40×40 against the direct computation.
func FuzzTableMatchesAlgorithm(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint16(27), uint16(13), uint8(1))     // |dx| = |dy| tie
	f.Add(uint8(2), uint8(9), uint16(0), uint16(17), uint8(2))      // thin column
	f.Add(uint8(16), uint8(3), uint16(47), uint16(0), uint8(0))     // corner to corner
	f.Add(uint8(40), uint8(40), uint16(820), uint16(820), uint8(1)) // arrived
	f.Fuzz(func(t *testing.T, w, h uint8, at, dst uint16, algo uint8) {
		m := topology.MustMesh(2+int(w)%39, 2+int(h)%39)
		a := tableAlgos[int(algo)%len(tableAlgos)]
		checkTableEntry(t, routing.NewTable(a, m, m.Nodes()), a, m, int(at)%m.Nodes(), int(dst)%m.Nodes())
	})
}

// TestNewTableMemoryLinear guards against an O(N²) structure returning: a
// 64×64 table (4096 nodes, 16.7M pairs) must allocate under 64 KB.
func TestNewTableMemoryLinear(t *testing.T) {
	m := topology.MustMesh(64, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := routing.NewTable(routing.WestFirst{}, m, m.Nodes())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tab)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewTable on 64x64 allocated %d bytes, budget %d", got, 64<<10)
	}
}

// TestTableIdempotentWrap: wrapping a table returns the same table.
func TestTableIdempotentWrap(t *testing.T) {
	m := topology.MustMesh(4, 4)
	tab := routing.NewTable(routing.DOR{}, m, m.Nodes())
	if again := routing.NewTable(tab, m, m.Nodes()); again != tab {
		t.Fatal("NewTable(table) built a copy")
	}
}

// TestMinimalAdaptiveProperties: the minimal set is nonempty off-destination,
// contains only minimal directions, and orders the larger offset first.
func TestMinimalAdaptiveProperties(t *testing.T) {
	m := topology.MustMesh(8, 8)
	a := routing.MinimalAdaptive{}
	for at := 0; at < m.Nodes(); at++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			ports := a.Productive(m, at, dst)
			if at == dst {
				if ports.Len() != 0 {
					t.Fatalf("at==dst but %v", ports.Slice())
				}
				continue
			}
			if ports.Len() == 0 {
				t.Fatalf("no minimal port from %d to %d", at, dst)
			}
			d0 := m.Distance(at, dst)
			for i := 0; i < ports.Len(); i++ {
				nb := m.Neighbor(at, ports.At(i))
				if nb == -1 || m.Distance(nb, dst) != d0-1 {
					t.Fatalf("port %v from %d to %d is not minimal", ports.At(i), at, dst)
				}
			}
			ax, ay := m.XY(at)
			dx, dy := m.XY(dst)
			xd, yd := dx-ax, dy-ay
			if xd < 0 {
				xd = -xd
			}
			if yd < 0 {
				yd = -yd
			}
			if xd >= yd && xd > 0 {
				if p := ports.At(0); p != flit.East && p != flit.West {
					t.Fatalf("larger X offset but first port %v", p)
				}
			}
		}
	}
}
