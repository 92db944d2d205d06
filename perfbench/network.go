package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"dxbar"
	"dxbar/internal/flit"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// pattern is the traffic pattern of every workload: uniform random, the
// paper's Fig. 5/6 pattern.
const pattern = "UR"

// netSpec is one open-loop Bernoulli network the benchmark builds through
// dxbar.NewNetwork and steps itself.
type netSpec struct {
	design  dxbar.Design
	routing string
	w, h    int
	load    float64
	warmup  uint64
	measure uint64
	window  uint64 // cycles per timing window
	shards  int
}

func (s netSpec) nodes() int { return s.w * s.h }

// config is the dxbar.Run configuration that simulates the same network.
func (s netSpec) config(seed int64) dxbar.Config {
	return dxbar.Config{
		Design: s.design, Routing: s.routing, Width: s.w, Height: s.h,
		Pattern: pattern, Load: s.load, WarmupCycles: s.warmup,
		MeasureCycles: s.measure, Seed: seed, Shards: s.shards,
	}
}

// netResult is what one network run yields: host timings, the simulated
// Result and, when traced, the per-layer span data.
type netResult struct {
	spec    netSpec
	run     int32         // span run id (traced runs)
	wall    time.Duration // set-up, warm-up and measurement
	setup   time.Duration // mesh, traffic and collector set-up plus NewNetwork
	windows []float64     // host ns per cycle, one per timing window
	res     dxbar.Result
	digest  string
	audit   error // flit-conservation audit (nil when not audited or passed)

	// Traced runs only.
	allocs, bytes uint64        // heap allocations over the measurement phase
	phase         time.Duration // sharded router phase, from the shard profiler
	stepTotal     time.Duration // Step time of the sampled cycles
	sampled       int           // cycles whose Step was traced
	shardProfiles []sim.ShardProfile
	rebalances    uint64
}

// probe is the benchmark's instrumentation around the values it passes into
// the engine: a Source that counts what it generates and timestamps node 0's
// Generate call and node N-1's return, a Sink that audits deliveries, and
// wrappers on the first and last router. The sequential backend steps routers
// in node order, so the two router wrappers bracket the whole router phase.
type probe struct {
	inner sim.SourceAdapter
	last  int
	tr    *tracer
	on    bool // timestamp this cycle
	off   bool // drain: generate nothing

	genStart, genEnd int64
	rtStart, rtEnd   int64

	genPackets, genFlits uint64
	delPackets, delFlits uint64
	dup                  uint64
	seen                 []uint64 // delivered packet IDs, as a bitset
}

func (p *probe) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	if p.on && node == 0 {
		p.genStart = p.tr.now()
	}
	var out []*traffic.PacketSpec
	if !p.off {
		out = p.inner.Generate(node, cycle)
		for _, s := range out {
			p.genPackets++
			p.genFlits += uint64(s.NumFlits)
		}
	}
	if p.on && node == p.last {
		p.genEnd = p.tr.now()
	}
	return out
}

func (p *probe) Deliver(pk flit.Packet, cycle uint64) {
	w := pk.PacketID / 64
	for w >= uint64(len(p.seen)) {
		p.seen = append(p.seen, make([]uint64, len(p.seen)+1)...)
	}
	bit := uint64(1) << (pk.PacketID % 64)
	if p.seen[w]&bit != 0 {
		p.dup++
	}
	p.seen[w] |= bit
	p.delPackets++
	p.delFlits += uint64(pk.NumFlits)
}

// timedRouter timestamps the start of the first router's Step or the end of
// the last router's.
type timedRouter struct {
	inner sim.Router
	p     *probe
	first bool
}

func (r *timedRouter) Step(cycle uint64) {
	if r.first && r.p.on {
		r.p.rtStart = r.p.tr.now()
	}
	r.inner.Step(cycle)
	if !r.first && r.p.on {
		r.p.rtEnd = r.p.tr.now()
	}
}

// bufferDepth is the per-input credit depth each design's network is built
// with; sim.Engine.Reset refuses any other value, so a wrong entry fails
// loudly rather than changing the network.
func bufferDepth(d dxbar.Design) int {
	switch d {
	case dxbar.DesignFlitBless, dxbar.DesignSCARAB:
		return 0
	case dxbar.DesignBuffered8:
		return 8
	}
	return 4
}

// wrapRouters re-seats the routers NewNetwork built behind the probe's first
// and last router wrappers. Engine.Reset rebuilds every Env's state (the
// network has not stepped yet, so nothing is lost) and takes each node's
// router from the factory, which hands back the already-built one.
func wrapRouters(net *dxbar.Network, spec netSpec, p *probe) error {
	eng := net.Engine
	n := spec.nodes()
	routers := make([]sim.Router, n)
	for i := range routers {
		routers[i] = eng.Router(i)
	}
	return eng.Reset(sim.Config{
		Mesh: eng.Mesh(), Meter: net.Meter, Stats: net.Stats,
		Source: p, Sink: p, BufferDepth: bufferDepth(spec.design), Shards: spec.shards,
	}, func(env *sim.Env) sim.Router {
		r := routers[env.Node]
		switch env.Node {
		case 0:
			return &timedRouter{inner: r, p: p, first: true}
		case n - 1:
			return &timedRouter{inner: r, p: p}
		}
		return r
	})
}

// runOpts selects the optional parts of a network run.
type runOpts struct {
	tr     *tracer // nil: untraced
	parent int32   // parent span for the traced run
	every  uint64  // trace one cycle in every this many
	audit  bool    // drain the network afterwards and check conservation
}

// built is a constructed network and the benchmark's probe on it.
type built struct {
	net   *dxbar.Network
	p     *probe
	setup time.Duration
}

// buildNetwork constructs spec's network through dxbar.NewNetwork; obs
// carries any observers to attach (Diag, Telemetry, Events). The timed
// set-up covers the mesh, the traffic source, the collector and NewNetwork.
func buildNetwork(spec netSpec, seed int64, tr *tracer, obs dxbar.NetworkOptions) (built, error) {
	t0 := time.Now()
	mesh, err := topology.NewMesh(spec.w, spec.h)
	if err != nil {
		return built{}, err
	}
	pat, err := traffic.New(pattern, mesh)
	if err != nil {
		return built{}, err
	}
	bern, err := traffic.NewBernoulli(mesh, pat, spec.load, 1, seed)
	if err != nil {
		return built{}, err
	}
	total := spec.warmup + spec.measure
	coll := stats.NewCollector(mesh.Nodes(), spec.warmup, total)
	// Size the delivery bitset for the expected packet count so the
	// measured cycles do not grow it.
	expect := spec.load*float64(mesh.Nodes())*float64(total)*1.25 + 1024
	p := &probe{inner: sim.SourceAdapter{B: bern}, last: mesh.Nodes() - 1, tr: tr, seen: make([]uint64, int(expect)/64+1)}
	net, err := dxbar.NewNetwork(dxbar.NetworkOptions{
		Design: spec.design, Routing: spec.routing, Mesh: mesh,
		Source: p, Sink: p, Stats: coll, Shards: spec.shards,
		Diag: obs.Diag, Telemetry: obs.Telemetry, Events: obs.Events,
	})
	if err != nil {
		return built{}, err
	}
	return built{net: net, p: p, setup: time.Since(t0)}, nil
}

// runNetwork builds spec's network, runs its warm-up, times its
// measurement phase window by window, and assembles the Result dxbar.Run
// reports for the same configuration.
func runNetwork(spec netSpec, seed int64, o runOpts) (nr netResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", spec.design, r)
		}
	}()
	nr.spec = spec
	tr := o.tr
	sharded := sim.ResolveShards(spec.shards, spec.w, spec.h) > 1

	var setupSpan int32 = -1
	if tr != nil {
		tr.newRun()
		nr.run = tr.run
		setupSpan = tr.begin("dxbar.NewNetwork", o.parent)
	}
	t0 := time.Now()
	b, err := buildNetwork(spec, seed, tr, dxbar.NetworkOptions{})
	if err != nil {
		return nr, err
	}
	net, p := b.net, b.p
	// Router wrappers bracket the router phase only on the sequential
	// backend; the sharded one steps routers on worker goroutines, and its
	// router phase comes from the engine's shard profiler instead.
	if tr != nil && !sharded {
		if err := wrapRouters(net, spec, p); err != nil {
			return nr, err
		}
	}
	nr.setup = b.setup
	eng := net.Engine
	if tr != nil {
		tr.end(setupSpan)
		warm := tr.begin("sim.Engine.Run", o.parent)
		eng.Run(spec.warmup)
		tr.end(warm)
	} else {
		eng.Run(spec.warmup)
	}
	base := net.Meter.Snapshot()

	var ms0, ms1 runtime.MemStats
	var prof0 []sim.ShardProfile
	if tr != nil {
		// Reserve the span slots the measurement phase needs, so the
		// allocation count below is the engine's alone.
		need := 3*int(spec.measure/max(o.every, 1)) + 16
		tr.spans = append(make([]span, 0, len(tr.spans)+need), tr.spans...)
		prof0 = eng.ShardProfiles()
		runtime.ReadMemStats(&ms0)
	}
	windows := int(spec.measure / spec.window)
	nr.windows = make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		ws := time.Now()
		if tr == nil {
			eng.Run(spec.window)
		} else {
			for c := uint64(0); c < spec.window; c++ {
				if eng.Cycle()%o.every != 0 {
					eng.Step()
					continue
				}
				p.on = true
				s0 := tr.now()
				eng.Step()
				s1 := tr.now()
				p.on = false
				step := tr.add("sim.Engine.Step", o.parent, s0, s1)
				tr.add("sim.Source.Generate", step, p.genStart, p.genEnd)
				if !sharded {
					tr.add("sim.Router.Step", step, p.rtStart, p.rtEnd)
				}
				nr.stepTotal += time.Duration(s1 - s0)
				nr.sampled++
			}
		}
		nr.windows = append(nr.windows, float64(time.Since(ws).Nanoseconds())/float64(spec.window))
	}
	nr.wall = time.Since(t0)
	if rest := spec.measure - uint64(windows)*spec.window; rest > 0 {
		eng.Run(rest)
	}
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		nr.allocs = ms1.Mallocs - ms0.Mallocs
		nr.bytes = ms1.TotalAlloc - ms0.TotalAlloc
		if prof1 := eng.ShardProfiles(); len(prof1) > 0 {
			nr.shardProfiles = make([]sim.ShardProfile, len(prof1))
			var phase time.Duration
			for i, s := range prof1 {
				d := s
				d.RouterPhase -= prof0[i].RouterPhase
				d.BarrierWait -= prof0[i].BarrierWait
				nr.shardProfiles[i] = d
				phase += d.RouterPhase + d.BarrierWait
			}
			// Every shard runs from the same barrier to the next, so the
			// mean of busy+wait is the router phase's wall time.
			nr.phase = phase / time.Duration(len(prof1))
			nr.rebalances, _ = eng.ShardRebalances()
		}
	}

	window := net.Meter.Snapshot().Sub(base)
	res := dxbar.Result{
		Results:       net.Stats.Results(),
		EventCounts:   window,
		TotalEnergyNJ: net.Meter.EnergyPJ(window) / 1000.0,
		Design:        spec.design,
		Routing:       spec.routing,
		Pattern:       pattern,
		Load:          spec.load,
		Width:         spec.w,
		Height:        spec.h,
	}
	if res.Packets > 0 {
		res.AvgEnergyNJ = res.TotalEnergyNJ / float64(res.Packets)
	}
	res.Power, err = net.Meter.Breakdown(string(spec.design), window, spec.measure, spec.nodes())
	if err != nil {
		return nr, err
	}
	nr.res = res
	if nr.digest, err = digest(res); err != nil {
		return nr, err
	}
	if o.audit {
		nr.audit = drainAudit(eng, p)
	}
	return nr, nil
}

// drainAudit stops generation, steps until every flit has left the network,
// and checks flit conservation: every generated packet and flit was
// delivered, exactly once.
func drainAudit(eng *sim.Engine, p *probe) error {
	p.off = true
	const limit = 1_000_000
	for i := 0; i < limit && (eng.QueuedFlits() > 0 || eng.Pool().Outstanding() > 0); i++ {
		eng.Step()
	}
	switch {
	case eng.QueuedFlits() > 0 || eng.Pool().Outstanding() > 0:
		return fmt.Errorf("network did not drain in %d cycles (%d queued, %d outstanding)", limit, eng.QueuedFlits(), eng.Pool().Outstanding())
	case p.dup > 0:
		return fmt.Errorf("%d packets delivered more than once", p.dup)
	case p.genPackets != p.delPackets || p.genFlits != p.delFlits:
		return fmt.Errorf("generated %d packets/%d flits, delivered %d/%d", p.genPackets, p.genFlits, p.delPackets, p.delFlits)
	}
	return nil
}

// digest hashes every deterministic field of a Result. The shard profile
// and rebalancing counts are wall-clock measurements and are left out.
func digest(r dxbar.Result) (string, error) {
	r.ShardProfile, r.ShardImbalance, r.ShardRebalances, r.ShardNodesMigrated = nil, 0, 0, 0
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
