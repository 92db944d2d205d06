package main

import (
	"fmt"
	"sort"
)

// minWindows is the fewest timing windows cycle_ns_p50/p90 may be taken
// from: with 100 windows, ten lie beyond the 90th percentile.
const minWindows = 100

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the usual "type 7" estimator). xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowQuantiles returns the p50 and p90 of per-window host ns per cycle,
// refusing fewer than minWindows windows.
func windowQuantiles(ns []float64) (p50, p90 float64, err error) {
	if len(ns) < minWindows {
		return 0, 0, fmt.Errorf("%d timing windows, need at least %d", len(ns), minWindows)
	}
	return quantile(ns, 0.5), quantile(ns, 0.9), nil
}

// measured is the measurement phase of one simulated network (or a whole
// sweep): its node count, the cycles measured and the host seconds they
// took.
type measured struct {
	nodes   int
	cycles  uint64
	seconds float64
}

// nodeCyclesPerSec is simulated node-cycles per host second over a set of
// networks of possibly different sizes: each network contributes its own
// nodes × cycles, so a 64×64 cycle weighs 64 times an 8×8 one.
func nodeCyclesPerSec(ms []measured) float64 {
	var work, secs float64
	for _, m := range ms {
		work += float64(m.nodes) * float64(m.cycles)
		secs += m.seconds
	}
	if secs == 0 {
		return 0
	}
	return work / secs
}
