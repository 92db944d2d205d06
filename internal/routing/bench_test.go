package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"dxbar/internal/topology"
)

func BenchmarkDORProductive(b *testing.B) {
	m := topology.MustMesh(8, 8)
	a := DOR{}
	for i := 0; i < b.N; i++ {
		a.Productive(m, i%64, (i*31)%64)
	}
}

func BenchmarkWestFirstProductive(b *testing.B) {
	m := topology.MustMesh(8, 8)
	a := WestFirst{}
	for i := 0; i < b.N; i++ {
		a.Productive(m, i%64, (i*31)%64)
	}
}

func BenchmarkDeflectionOrder(b *testing.B) {
	m := topology.MustMesh(8, 8)
	a := DOR{}
	for i := 0; i < b.N; i++ {
		DeflectionOrder(a, m, i%64, (i*31)%64)
	}
}

// tableQueries returns a fixed-seed uniform-random stream of (at, dst)
// pairs, dst != at, over an n-node mesh.
func tableQueries(n int) [][2]int {
	rng := rand.New(rand.NewSource(1))
	q := make([][2]int, 1<<14)
	for i := range q {
		at, dst := rng.Intn(n), rng.Intn(n-1)
		if dst >= at {
			dst++
		}
		q[i] = [2]int{at, dst}
	}
	return q
}

// benchTables runs body against an 8×8 and a 64×64 DOR table with the
// uniform-random query stream of each.
func benchTables(b *testing.B, body func(b *testing.B, t *Table, q [][2]int)) {
	for _, side := range []int{8, 64} {
		m := topology.MustMesh(side, side)
		t, q := NewTable(DOR{}, m, m.Nodes()), tableQueries(m.Nodes())
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) { body(b, t, q) })
	}
}

// tableSink keeps the benchmarked queries from being optimized away.
var tableSink int

func BenchmarkTableRequestAt(b *testing.B) {
	benchTables(b, func(b *testing.B, t *Table, q [][2]int) {
		sink := 0
		for i := 0; i < b.N; i++ {
			p := q[i&(len(q)-1)]
			sink += int(t.RequestAt(p[0], p[1]))
		}
		tableSink = sink
	})
}

func BenchmarkTableDeflectionAt(b *testing.B) {
	benchTables(b, func(b *testing.B, t *Table, q [][2]int) {
		sink := 0
		for i := 0; i < b.N; i++ {
			p := q[i&(len(q)-1)]
			sink += t.DeflectionAt(p[0], p[1]).Len()
		}
		tableSink = sink
	})
}
