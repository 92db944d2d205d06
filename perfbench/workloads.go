package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dxbar"
	"dxbar/internal/diag"
	"dxbar/internal/events"
	"dxbar/internal/metrics"
	"dxbar/internal/routing"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
)

// workload is one fixed amount of simulated work under open-loop Bernoulli
// traffic. Network workloads list the networks the benchmark builds through
// dxbar.NewNetwork and steps itself; the sweep workload calls
// dxbar.LoadSweep.
type workload struct {
	name  string
	why   string
	nets  []netSpec // nil for the sweep
	every uint64    // traced runs trace one cycle in every this many
	w, h  int       // mesh size, for the routing-layer measurements
}

// sweepLoads is the load subset the traced sweep run replays through
// NewNetwork: below, near and far past bufferless saturation.
var sweepLoads = []float64{0.1, 0.4, 0.9}

// figureDesigns are the six (design, routing) pairs of LoadSweep, in its
// order.
var figureDesigns = []struct {
	design  dxbar.Design
	routing string
}{
	{dxbar.DesignFlitBless, "DOR"}, {dxbar.DesignSCARAB, "DOR"},
	{dxbar.DesignBuffered4, "DOR"}, {dxbar.DesignBuffered8, "DOR"},
	{dxbar.DesignDXbar, "DOR"}, {dxbar.DesignDXbar, "WF"},
}

func workloads() []workload {
	var ur8x8 []netSpec
	for _, d := range dxbar.AllDesigns {
		ur8x8 = append(ur8x8, netSpec{design: d, routing: "DOR", w: 8, h: 8, load: 0.3,
			warmup: 2000, measure: 10000, window: 100})
	}
	return []workload{
		{name: "ur8x8", why: "the paper's 8x8 UR evaluation point, all 7 designs: router phase dominates, routing table stays in cache",
			nets: ur8x8, every: 5, w: 8, h: 8},
		{name: "sweep_ur", why: "Fig. 5/6 load sweep past saturation on RunMany's worker pool with the default observers",
			every: 10, w: 8, h: 8},
		{name: "mesh64", why: "64x64 set-up plus a short run: the O(N^2) routing table dominates set-up and memory",
			nets: []netSpec{{design: dxbar.DesignDXbar, routing: "DOR", w: 64, h: 64, load: 0.05,
				warmup: 256, measure: 512, window: 8}},
			every: 1, w: 64, h: 64},
		{name: "shard32", why: "32x32 on the sharded backend with 2 shards, the only workload that runs it",
			nets: []netSpec{{design: dxbar.DesignDXbar, routing: "DOR", w: 32, h: 32, load: 0.10,
				warmup: 500, measure: 2000, window: 40, shards: 2}},
			every: 1, w: 32, h: 32},
	}
}

// sweepSpecs are the networks of dxbar.LoadSweep("UR", dxbar.Full, seed),
// in its point order.
func sweepSpecs() []netSpec {
	var out []netSpec
	for _, fd := range figureDesigns {
		for _, l := range dxbar.Full.Loads {
			out = append(out, netSpec{design: fd.design, routing: fd.routing, w: 8, h: 8, load: l,
				warmup: dxbar.Full.Warmup, measure: dxbar.Full.Measure, window: 100})
		}
	}
	return out
}

// outcome is one simulated run's check: its digest and any error.
type outcome struct {
	label  string
	digest string
	err    error
}

// unit is one pass over a workload's fixed work.
type unit struct {
	wall, setup time.Duration
	meas        []measured
	windows     []float64
	results     []dxbar.Result
	outcomes    []outcome
	nets        []netResult
}

// freshHeap collects garbage before a timed network so one network's
// leftovers are not collected on the next one's clock. The freed memory
// stays with the process: returning it to the OS made the next 64x64
// network's passes vary by +-20% instead of +-7% on the development host.
func freshHeap() {
	runtime.GC()
}

// runNetUnit runs every network of a network workload once.
func runNetUnit(w workload, seed int64, o runOpts) unit {
	var u unit
	for _, spec := range w.nets {
		freshHeap()
		nr, err := runNetwork(spec, seed, o)
		label := fmt.Sprintf("%s/%s", spec.design, spec.routing)
		if err == nil && nr.audit != nil {
			err = fmt.Errorf("flit conservation: %w", nr.audit)
		}
		u.outcomes = append(u.outcomes, outcome{label: label, digest: nr.digest, err: err})
		if err != nil {
			continue
		}
		u.wall += nr.wall
		u.setup += nr.setup
		// The measurement phase's time is taken as its cycles times the
		// median window's ns per cycle, so a burst of interference from
		// outside the process moves a few windows, not the figure.
		cycles := spec.measure / spec.window * spec.window
		u.meas = append(u.meas, measured{nodes: spec.nodes(), cycles: cycles, seconds: float64(cycles) * median(nr.windows) / 1e9})
		u.windows = addWindows(u.windows, nr.windows)
		u.results = append(u.results, nr.res)
		u.nets = append(u.nets, nr)
	}
	return u
}

// addWindows adds a network's per-window ns/cycle to the pass's, index by
// index. A pass's window k is then the host time to advance every network
// of the pass by one cycle, which keeps the distribution one-humped when
// the networks' speeds differ (the 7 designs of ur8x8).
func addWindows(sum, ns []float64) []float64 {
	if sum == nil {
		return append([]float64(nil), ns...)
	}
	sum = sum[:min(len(sum), len(ns))]
	for k := range sum {
		sum[k] += ns[k]
	}
	return sum
}

// goid returns the calling goroutine's id. dxbar.OnRunDone carries no job
// index, but each RunMany worker runs its jobs back to back on one
// goroutine, so the gap between one goroutine's completions is the time of
// the point it just finished.
func goid() uint64 {
	var b [64]byte
	s := bytes.TrimPrefix(b[:runtime.Stack(b[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(string(s), 10, 64)
	return id
}

// pointTimer times RunMany's points from dxbar.OnRunDone.
type pointTimer struct {
	mu     sync.Mutex
	start  time.Time
	last   map[uint64]time.Time
	points [][2]time.Time // start, end of each completed point
}

func newPointTimer() *pointTimer {
	return &pointTimer{start: time.Now(), last: map[uint64]time.Time{}}
}

func (t *pointTimer) done() {
	now := time.Now()
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.last[id]
	if !ok {
		s = t.start
	}
	t.last[id] = now
	t.points = append(t.points, [2]time.Time{s, now})
}

func (t *pointTimer) seconds() []float64 {
	out := make([]float64, len(t.points))
	for i, p := range t.points {
		out[i] = p[1].Sub(p[0]).Seconds()
	}
	return out
}

// runSweepUnit runs dxbar.LoadSweep once, timing each point.
func runSweepUnit(seed int64) (unit, error) {
	var u unit
	freshHeap()
	t := newPointTimer()
	dxbar.OnRunDone(t.done)
	pts, err := dxbar.LoadSweep(pattern, dxbar.Full, seed)
	u.wall = time.Since(t.start)
	dxbar.OnRunDone(nil)
	if err != nil {
		return u, err
	}
	cycles := dxbar.Full.Warmup + dxbar.Full.Measure
	for _, s := range t.seconds() {
		u.windows = append(u.windows, s*1e9/float64(cycles))
	}
	var nodeCycles float64
	for _, p := range pts {
		d, err := digest(p.Result)
		u.outcomes = append(u.outcomes, outcome{label: fmt.Sprintf("%s@%.2f", p.Label, p.Load), digest: d, err: err})
		u.results = append(u.results, p.Result)
		nodeCycles += float64(p.Result.Width*p.Result.Height) * float64(cycles)
	}
	// node_cycles_per_s for the sweep is total node-cycles over wall_s.
	u.meas = []measured{{nodes: 1, cycles: uint64(nodeCycles), seconds: u.wall.Seconds()}}
	return u, nil
}

// sweepSetup is the sweep's network construction: NewNetwork for each of
// its points, summed (RunMany's engine reuse pays less; this is the cold
// cost).
func sweepSetup(seed int64) (time.Duration, error) {
	freshHeap()
	var total time.Duration
	for _, spec := range sweepSpecs() {
		b, err := buildNetwork(spec, seed, nil, dxbar.NetworkOptions{})
		if err != nil {
			return 0, err
		}
		total += b.setup
	}
	return total, nil
}

// sweepAudit checks flit conservation for every sweep design at the sweep's
// highest load, on a short drained run (dxbar.Run exposes no sink).
func sweepAudit(seed int64) []outcome {
	var out []outcome
	top := dxbar.Full.Loads[len(dxbar.Full.Loads)-1]
	for _, fd := range figureDesigns {
		spec := netSpec{design: fd.design, routing: fd.routing, w: 8, h: 8, load: top,
			warmup: 200, measure: 1000, window: 100}
		nr, err := runNetwork(spec, seed, runOpts{audit: true})
		if err == nil && nr.audit != nil {
			err = fmt.Errorf("flit conservation: %w", nr.audit)
		}
		out = append(out, outcome{label: fmt.Sprintf("audit %s/%s@%.1f", fd.design, fd.routing, top), err: err})
	}
	return out
}

// routingCosts times routing.NewTable for the mesh and measures the bytes it
// allocates, then times Table.RequestAt over a uniform-random (node, dst)
// stream sized to the mesh.
func routingCosts(tr *tracer, parent int32, w, h int, seed int64) (buildS, mb, reqNs float64, err error) {
	mesh, err := topology.NewMesh(w, h)
	if err != nil {
		return 0, 0, 0, err
	}
	n := mesh.Nodes()
	var builds []float64
	var tab *routing.Table
	deadline := time.Now().Add(200 * time.Millisecond)
	for len(builds) < 3 || time.Now().Before(deadline) {
		tab = nil
		freshHeap()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin("routing.NewTable", parent)
		t0 := time.Now()
		tab = routing.NewTable(routing.DOR{}, mesh, n)
		builds = append(builds, time.Since(t0).Seconds())
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		mb = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		if n >= 1024 {
			break // one build of a large table is seconds
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int32, max(16*n, 1<<14))
	for i := range pairs {
		at := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= at {
			dst++
		}
		pairs[i] = [2]int32{int32(at), int32(dst)}
	}
	var passes []float64
	var sink int
	deadline = time.Now().Add(300 * time.Millisecond)
	for len(passes) < 5 || time.Now().Before(deadline) {
		sp := tr.begin("routing.Table.RequestAt", parent)
		t0 := time.Now()
		for _, p := range pairs {
			sink += int(tab.RequestAt(int(p[0]), int(p[1])))
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(len(pairs)))
		tr.end(sp)
	}
	runtime.KeepAlive(sink)
	return median(builds), mb, median(passes), nil
}

// observerCosts measures the Step time each observer adds when attached
// alone through NetworkOptions to the 8x8 DXbar network at load 0.3: four
// copies of the network (bare, diag, metrics, events) step in interleaved
// windows, and each observer's cost is the median per-window difference
// from the bare copy. All four simulate the same traffic.
func observerCosts(tr *tracer, parent int32, seed int64) (diagNs, metricsNs, eventsNs float64, err error) {
	spec := netSpec{design: dxbar.DesignDXbar, routing: "DOR", w: 8, h: 8, load: 0.3,
		warmup: 2000, measure: 10000, window: 100}
	n := spec.nodes()
	mon := diag.NewMonitor(diag.Config{}, n)
	tel := metrics.NewSimTelemetry(metrics.NewRegistry(), metrics.SimTelemetryOptions{LatencyBounds: stats.LatencyBucketUppers()})
	obs := []dxbar.NetworkOptions{{}, {Diag: mon}, {Telemetry: tel}, {Events: events.NewRecorder(n, 1<<16)}}
	names := []string{"bare", "diag", "metrics", "events"}
	nets := make([]built, len(obs))
	for i, o := range obs {
		if nets[i], err = buildNetwork(spec, seed, nil, o); err != nil {
			return 0, 0, 0, err
		}
		nets[i].net.Engine.Run(spec.warmup)
	}
	windows := int(spec.measure / spec.window)
	diffs := make([][]float64, len(obs))
	ns := make([]float64, len(nets))
	for w := 0; w < windows; w++ {
		// Rotate which copy steps first, so cache warmth from the previous
		// copy's window favours none of them.
		for k := range nets {
			i := (w + k) % len(nets)
			sp := tr.begin("observer."+names[i], parent)
			t0 := time.Now()
			nets[i].net.Engine.Run(spec.window)
			ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(spec.window)
			tr.end(sp)
		}
		for i := 1; i < len(nets); i++ {
			diffs[i] = append(diffs[i], ns[i]-ns[0])
		}
	}
	tel.Detach()
	mon.Detach()
	d0, _ := digest(dxbar.Result{Results: nets[0].net.Stats.Results()})
	for i := 1; i < len(nets); i++ {
		if d, _ := digest(dxbar.Result{Results: nets[i].net.Stats.Results()}); d != d0 {
			return 0, 0, 0, fmt.Errorf("observer %s changed the simulated results", names[i])
		}
	}
	return median(diffs[1]), median(diffs[2]), median(diffs[3]), nil
}
