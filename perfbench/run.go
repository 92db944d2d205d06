package main

import (
	"fmt"
	"runtime"
	"time"

	"dxbar"
)

// minPasses is the fewest passes an end-to-end run makes. The sweep's 66
// points per pass give the 132 windows its cycle quantiles need.
const minPasses = 2

// endToEndRun repeats the workload's fixed work until seconds have passed
// (at least minPasses passes), with tracing off, and reports the end-to-end
// metrics: medians over passes for wall_s, setup_s and node_cycles_per_s,
// quantiles over every timing window for cycle_ns_p50/p90. It also returns
// the first pass's run digests and every run's outcome. When want is
// non-nil, the first pass's digests must equal it.
func endToEndRun(w workload, seed int64, seconds float64, want []string) (map[string]float64, []outcome, []string, error) {
	start := time.Now()
	var units []unit
	for len(units) < minPasses || time.Since(start).Seconds() < seconds {
		var u unit
		if w.nets == nil {
			var err error
			if u, err = runSweepUnit(seed); err != nil {
				return nil, nil, nil, err
			}
		} else {
			u = runNetUnit(w, seed, runOpts{audit: len(units) == 0})
		}
		units = append(units, u)
	}
	outcomes, first := checkPasses(units)
	if want != nil {
		if len(want) != len(first) {
			return nil, nil, nil, fmt.Errorf("%d runs per pass, perfbench/expected.json lists %d", len(first), len(want))
		}
		for i := range first { // the first pass's outcomes lead
			if outcomes[i].err == nil && first[i] != want[i] {
				outcomes[i].err = fmt.Errorf("digest %s, perfbench/expected.json has %s", first[i], want[i])
			}
		}
	}

	var walls, setups, rates, windows []float64
	for _, u := range units {
		walls = append(walls, u.wall.Seconds())
		setups = append(setups, u.setup.Seconds())
		rates = append(rates, nodeCyclesPerSec(u.meas))
		windows = append(windows, u.windows...)
	}
	if w.nets == nil {
		setups = setups[:0]
		for i := 0; i < 5; i++ {
			s, err := sweepSetup(seed)
			if err != nil {
				return nil, nil, nil, err
			}
			setups = append(setups, s.Seconds())
		}
		outcomes = append(outcomes, sweepAudit(seed)...)
	}
	p50, p90, err := windowQuantiles(windows)
	if err != nil {
		return nil, nil, nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("# passes: %d, wall_s each: %.3f, setup_s each: %.4f, node_cycles_per_s each: %.4g; windows: %d (%s)\n",
		len(units), walls, setups, rates, len(windows), windowDesc(w))
	v := map[string]float64{
		"wall_s": median(walls), "setup_s": median(setups), "node_cycles_per_s": median(rates),
		"cycle_ns_p50": p50, "cycle_ns_p90": p90, "peak_rss_mb": rss,
	}
	var acc, lat, en float64
	for _, r := range units[0].results {
		acc += r.AcceptedLoad
		lat += r.AvgLatency
		en += r.AvgEnergyNJ
	}
	n := float64(max(len(units[0].results), 1))
	v["sim_accepted_load"], v["sim_avg_latency_cycles"], v["sim_energy_nj_per_packet"] = acc/n, lat/n, en/n
	return v, outcomes, first, nil
}

func windowDesc(w workload) string {
	if w.nets == nil {
		return fmt.Sprintf("one per sweep point of %d cycles", dxbar.Full.Warmup+dxbar.Full.Measure)
	}
	return fmt.Sprintf("%d cycles each", w.nets[0].window)
}

// checkPasses turns every pass's run outcomes into checks: each run must
// have succeeded and must repeat the first pass's digest exactly.
func checkPasses(units []unit) ([]outcome, []string) {
	var out []outcome
	var first []string
	for _, o := range units[0].outcomes {
		first = append(first, o.digest)
	}
	for i, u := range units {
		for j, o := range u.outcomes {
			if o.err == nil && i > 0 && (j >= len(first) || o.digest != first[j]) {
				o.err = fmt.Errorf("pass %d digest %s differs from the first pass's", i, o.digest)
			}
			out = append(out, o)
		}
	}
	return out, first
}

// layerSums accumulates traced per-cycle layer times.
type layerSums struct {
	cycles                     int // sampled cycles
	step, gen, router, selfEng float64
}

func (l *layerSums) add(o layerSums) {
	l.cycles += o.cycles
	l.step += o.step
	l.gen += o.gen
	l.router += o.router
	l.selfEng += o.selfEng
}

func (l layerSums) perCycle(x float64) float64 {
	if l.cycles == 0 {
		return 0
	}
	return x / float64(l.cycles)
}

// netLayers splits one traced network's sampled Step time into source,
// router phase and engine self time from its spans. On the sharded backend
// the router phase is the shard profiler's, which covers every measured
// cycle, so it is scaled to the sampled ones.
func netLayers(tr *tracer, nr netResult) layerSums {
	lt := selfTimes(tr.spans, func(s span) bool { return s.run == nr.run })
	step := lt["sim.Engine.Step"]
	l := layerSums{cycles: step.count, step: float64(step.total), gen: float64(lt["sim.Source.Generate"].total)}
	if nr.shardProfiles != nil {
		measured := nr.spec.measure / nr.spec.window * nr.spec.window
		l.router = float64(nr.phase.Nanoseconds()) * float64(step.count) / float64(measured)
		l.selfEng = float64(step.self) - l.router
	} else {
		l.router = float64(lt["sim.Router.Step"].total)
		l.selfEng = float64(step.self)
	}
	return l
}

// tracedRun measures the workload's layers: it runs the workload's
// networks twice untraced and twice traced, alternating (the traced passes
// must reproduce the untraced passes' simulated results exactly), then
// times the routing layer and the observers on their own. The sweep's traced run also runs a
// serial RunMany for the runner's per-point times and replays a subset of
// its points through NewNetwork.
func tracedRun(w workload, seed int64) (map[string]float64, []outcome, *tracer, error) {
	tr := newTracer()
	root := tr.begin("workload."+w.name, -1)
	v := map[string]float64{}
	for _, d := range perLayer() {
		v[d.name] = 0 // a layer the workload does not exercise reads 0
	}
	var (
		outcomes []outcome
		results  []dxbar.Result
		plain    unit // untraced network pass
		traced   unit
	)
	var sw sweepTrace
	if w.nets == nil {
		var err error
		if sw, err = tracedSweep(tr, root, seed, v); err != nil {
			return nil, nil, nil, err
		}
		outcomes, results = sw.outcomes, sw.results
		w.nets = sw.replay
	}
	// Two untraced and two traced passes, alternating, so the overhead
	// estimate is not one pass's noise.
	var plainRates, tracedRates []float64
	for i := 0; i < 2; i++ {
		plain = runNetUnit(w, seed, runOpts{audit: i == 0})
		traced = runNetUnit(w, seed, runOpts{tr: tr, parent: root, every: w.every})
		if i == 0 && len(plain.results) == len(plain.outcomes) {
			// Each replayed point's statistics must equal its sweep
			// point's: NewNetwork plus the benchmark's source reproduces
			// dxbar.Run.
			for k, j := range sw.replayOf {
				if coreDigest(plain.results[k]) != coreDigest(sw.results[j]) {
					plain.outcomes[k].err = fmt.Errorf("NewNetwork replay differs from the sweep point's statistics")
				}
			}
		}
		outcomes = append(outcomes, plain.outcomes...)
		for j, o := range traced.outcomes {
			if o.err == nil && (j >= len(plain.outcomes) || o.digest != plain.outcomes[j].digest) {
				o.err = fmt.Errorf("traced run digest %s differs from the untraced run's", o.digest)
			}
			outcomes = append(outcomes, o)
		}
		plainRates = append(plainRates, nodeCyclesPerSec(plain.meas))
		tracedRates = append(tracedRates, nodeCyclesPerSec(traced.meas))
	}
	if results == nil {
		results = plain.results
	}
	if u := median(plainRates); u > 0 {
		v["trace.overhead_frac"] = 1 - median(tracedRates)/u
	}

	var all layerSums
	perDesign := map[dxbar.Design]*layerSums{}
	var allocs, bytes, measuredCycles uint64
	for _, nr := range traced.nets {
		l := netLayers(tr, nr)
		all.add(l)
		if perDesign[nr.spec.design] == nil {
			perDesign[nr.spec.design] = &layerSums{}
		}
		perDesign[nr.spec.design].add(l)
		allocs += nr.allocs
		bytes += nr.bytes
		measuredCycles += nr.spec.measure / nr.spec.window * nr.spec.window
		if nr.shardProfiles != nil {
			shardMetrics(nr, v)
		}
	}
	v["sim.step_ns_per_cycle"] = all.perCycle(all.step)
	v["traffic.generate_ns_per_cycle"] = all.perCycle(all.gen)
	v["router.phase_ns_per_cycle"] = all.perCycle(all.router)
	v["sim.self_ns_per_cycle"] = all.perCycle(all.selfEng)
	if all.step > 0 {
		v["router.phase_frac"] = all.router / all.step
	}
	for d, l := range perDesign {
		v["router.phase_ns_per_cycle."+string(d)] = l.perCycle(l.router)
	}
	if measuredCycles > 0 {
		v["sim.allocs_per_cycle"] = float64(allocs) / float64(measuredCycles)
		v["sim.bytes_per_cycle"] = float64(bytes) / float64(measuredCycles)
	}
	fmt.Printf("# trace accounting: Step %.0f ns/cycle = generate %.0f + router phase %.0f + engine self %.0f (%d sampled cycles)\n",
		all.perCycle(all.step), all.perCycle(all.gen), all.perCycle(all.router), all.perCycle(all.selfEng), all.cycles)

	var err error
	if v["routing.table_build_s"], v["routing.table_mb"], v["routing.request_ns"], err = routingCosts(tr, root, w.w, w.h, seed); err != nil {
		return nil, nil, nil, err
	}
	if v["diag.ns_per_cycle"], v["metrics.ns_per_cycle"], v["events.ns_per_cycle"], err = observerCosts(tr, root, seed); err != nil {
		outcomes = append(outcomes, outcome{label: "observers", err: err})
	}
	simCounts(results, v)
	tr.end(root)
	return v, outcomes, tr, nil
}

// shardMetrics reads the sharded backend's profile over the measurement
// phase: busiest over mean shard, the share of shard time spent waiting at
// the barrier, the share of Step time outside the router phase, and the
// rebalancing passes that moved work.
func shardMetrics(nr netResult, v map[string]float64) {
	var busy, wait, maxBusy float64
	for _, p := range nr.shardProfiles {
		b := p.RouterPhase.Seconds()
		busy += b
		wait += p.BarrierWait.Seconds()
		maxBusy = max(maxBusy, b)
	}
	if busy > 0 {
		v["sim.shard_imbalance"] = maxBusy * float64(len(nr.shardProfiles)) / busy
		v["sim.shard_barrier_wait_frac"] = wait / (busy + wait)
	}
	measured := nr.spec.measure / nr.spec.window * nr.spec.window
	if nr.sampled > 0 && measured > 0 {
		phase := nr.phase.Seconds() / float64(measured)
		step := nr.stepTotal.Seconds() / float64(nr.sampled)
		v["sim.coordinator_frac"] = 1 - phase/step
	}
	v["sim.shard_rebalances"] = float64(nr.rebalances)
}

// simCounts reports the simulated component counts: per-packet rates
// averaged over the runs, event counts summed.
func simCounts(results []dxbar.Result, v map[string]float64) {
	n := float64(max(len(results), 1))
	for _, r := range results {
		v["router.deflections_per_packet"] += r.DeflectionsPerPacket / n
		v["router.dropped_flits"] += float64(r.DroppedFlits)
		v["sim.retransmits_per_packet"] += r.RetransmitsPerPacket / n
		v["buffer.buffering_probability"] += r.BufferingProbability / n
		v["energy.crossbar_traversals"] += float64(r.EventCounts.CrossbarTraversals)
		v["energy.link_traversals"] += float64(r.EventCounts.LinkTraversals)
		v["energy.buffer_writes"] += float64(r.EventCounts.BufferWrites)
	}
}

// sweepTrace is what the traced sweep run adds to the network replay.
type sweepTrace struct {
	outcomes []outcome
	results  []dxbar.Result
	replay   []netSpec // sweep points to replay through NewNetwork
	replayOf []int     // index of each replayed point in the sweep
}

// tracedSweep runs LoadSweep (parallel, untraced) and the same points
// through a serial RunMany, timing each point from dxbar.OnRunDone, and
// picks the sweep points the traced run replays through NewNetwork. The
// serial results must equal the parallel ones.
func tracedSweep(tr *tracer, root int32, seed int64, v map[string]float64) (sweepTrace, error) {
	var st sweepTrace
	sp := tr.begin("dxbar.LoadSweep", root)
	par, err := runSweepUnit(seed)
	tr.end(sp)
	if err != nil {
		return st, err
	}
	specs := sweepSpecs()
	cfgs := make([]dxbar.Config, len(specs))
	for i, s := range specs {
		cfgs[i] = s.config(seed)
	}
	freshHeap()
	t := newPointTimer()
	dxbar.OnRunDone(t.done)
	rm := tr.begin("dxbar.RunMany", root)
	res, err := dxbar.RunMany(cfgs, 1)
	tr.end(rm)
	dxbar.OnRunDone(nil)
	if err != nil {
		return st, err
	}
	for _, p := range t.points {
		tr.add("dxbar.Run", rm, int64(p[0].Sub(tr.base)), int64(p[1].Sub(tr.base)))
	}
	pointS := t.seconds()
	var sum float64
	for _, s := range pointS {
		sum += s
	}
	v["runner.point_s_p50"], v["runner.point_s_p90"], v["runner.point_s_max"] = quantile(pointS, 0.5), quantile(pointS, 0.9), quantile(pointS, 1)
	workers := min(runtime.GOMAXPROCS(0), len(cfgs))
	v["runner.parallel_efficiency"] = sum / (float64(workers) * par.wall.Seconds())
	serial := tr.spans[rm].end - tr.spans[rm].start
	fmt.Printf("# runner accounting: serial RunMany %.2f s = %d point spans %.2f s + return %.3f s; parallel LoadSweep wall %.2f s on %d workers\n",
		float64(serial)/1e9, len(pointS), sum, float64(serial)/1e9-sum, par.wall.Seconds(), workers)

	st.outcomes = par.outcomes
	for i, r := range res {
		o := outcome{label: "serial " + par.outcomes[i].label}
		if d, err := digest(r); err != nil || d != par.outcomes[i].digest {
			o.err = fmt.Errorf("serial RunMany result differs from LoadSweep's (%v)", err)
		}
		st.outcomes = append(st.outcomes, o)
	}
	st.results = par.results
	for i, s := range specs {
		for _, l := range sweepLoads {
			if s.load == l {
				st.replay = append(st.replay, s)
				st.replayOf = append(st.replayOf, i)
			}
		}
	}
	return st, nil
}

// coreDigest hashes the simulated statistics and energy event counts, the
// part of a Result a NewNetwork-driven run and dxbar.Run share.
func coreDigest(r dxbar.Result) string {
	d, _ := digest(dxbar.Result{Results: r.Results, EventCounts: r.EventCounts})
	return d
}
