// Command perfbench is the simulator's same-host benchmark. It runs one named
// workload with a given seed, measures host time end to end (or, with
// -trace 1, layer by layer), checks the simulated results, and prints every
// metric by name and unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Build and run it from the repository root with perfbench/run.sh, or:
//
//	go -C perfbench run . -workload ur8x8 -seed 42 -seconds 10 -trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dxbar"
)

const defaultSeed = 42

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"node_cycles_per_s", "1/s"},
	{"cycle_ns_p50", "ns"}, {"cycle_ns_p90", "ns"}, {"peak_rss_mb", "MB"},
	{"sim_accepted_load", "flit/node/cycle"}, {"sim_avg_latency_cycles", "cycles"},
	{"sim_energy_nj_per_packet", "nJ"},
}

// perLayer are the metrics a traced run reports.
func perLayer() []metricDef {
	defs := []metricDef{
		{"routing.table_build_s", "s"}, {"routing.table_mb", "MB"}, {"routing.request_ns", "ns"},
		{"traffic.generate_ns_per_cycle", "ns"},
		{"router.phase_ns_per_cycle", "ns"}, {"router.phase_frac", "ratio"},
	}
	for _, d := range designNames() {
		defs = append(defs, metricDef{"router.phase_ns_per_cycle." + d, "ns"})
	}
	return append(defs,
		metricDef{"sim.step_ns_per_cycle", "ns"}, metricDef{"sim.self_ns_per_cycle", "ns"},
		metricDef{"sim.allocs_per_cycle", "count"}, metricDef{"sim.bytes_per_cycle", "B"},
		metricDef{"sim.shard_imbalance", "ratio"}, metricDef{"sim.shard_barrier_wait_frac", "ratio"},
		metricDef{"sim.coordinator_frac", "ratio"}, metricDef{"sim.shard_rebalances", "count"},
		metricDef{"diag.ns_per_cycle", "ns"}, metricDef{"metrics.ns_per_cycle", "ns"}, metricDef{"events.ns_per_cycle", "ns"},
		metricDef{"runner.point_s_p50", "s"}, metricDef{"runner.point_s_p90", "s"}, metricDef{"runner.point_s_max", "s"},
		metricDef{"runner.parallel_efficiency", "ratio"},
		metricDef{"router.deflections_per_packet", "count"}, metricDef{"router.dropped_flits", "count"},
		metricDef{"sim.retransmits_per_packet", "count"}, metricDef{"buffer.buffering_probability", "ratio"},
		metricDef{"energy.crossbar_traversals", "count"}, metricDef{"energy.link_traversals", "count"},
		metricDef{"energy.buffer_writes", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// designNames lists every router design, for the per-design metrics.
func designNames() []string {
	var out []string
	for _, d := range dxbar.AllDesigns {
		out = append(out, string(d))
	}
	return out
}

//go:embed expected.json
var expectedJSON []byte

// expected maps a workload to the digests of its runs at defaultSeed.
type expected map[string][]string

func main() {
	var (
		name    = flag.String("workload", "ur8x8", "workload: ur8x8, sweep_ur, mesh64 or shard32")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 10, "host seconds to keep repeating the workload's fixed work (at least 2 passes)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "also write the run's record (host stamp, metrics, checks) as JSON to this file")
		compare = flag.String("compare", "", "compare two records: a.json,b.json (refused when their host stamps differ)")
		update  = flag.Bool("update-expected", false, "rewrite perfbench/expected.json with this run's digests (seed 42, trace 0)")
	)
	flag.Parse()
	if *compare != "" {
		if err := runCompare(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *traced, *out, *update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runCompare(arg string) error {
	pa, pb, ok := strings.Cut(arg, ",")
	if !ok {
		return errors.New("-compare wants two files: a.json,b.json")
	}
	a, err := readRecord(pa)
	if err != nil {
		return err
	}
	b, err := readRecord(pb)
	if err != nil {
		return err
	}
	return compareRecords(os.Stdout, a, b)
}

func run(name string, seed int64, seconds float64, traced int, out string, update bool) error {
	var w workload
	for _, c := range workloads() {
		if c.name == name {
			w = c
		}
	}
	if w.name == "" {
		return fmt.Errorf("unknown workload %q", name)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	if update && (seed != defaultSeed || traced != 0) {
		return fmt.Errorf("-update-expected needs -seed %d -trace 0", defaultSeed)
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	st := hostStamp()
	fmt.Printf("# host: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s\n", st.CPU, st.NProc, st.GOMAXPROCS, st.Go, st.Rev)
	fmt.Printf("# workload %s, seed %d: %s\n", w.name, seed, w.why)

	var (
		vals     map[string]float64
		outcomes []outcome
		defs     []metricDef
		err      error
	)
	start := time.Now()
	if traced == 0 {
		defs = endToEnd
		var want, first []string
		if seed == defaultSeed && !update {
			if want = exp[w.name]; want == nil {
				return fmt.Errorf("perfbench/expected.json has no digests for %s", w.name)
			}
		}
		vals, outcomes, first, err = endToEndRun(w, seed, seconds, want)
		if err != nil {
			return err
		}
		if update {
			if err := writeExpected(w.name, first); err != nil {
				return err
			}
		}
	} else {
		defs = perLayer()
		var tr *tracer
		vals, outcomes, tr, err = tracedRun(w, seed)
		if err != nil {
			return err
		}
		traceOut := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", w.name, seed))
		if err := tr.write(traceOut, "perfbench "+w.name); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("# trace: %s (%d spans)\n", traceOut, len(tr.spans))
	}

	failed := 0
	for _, o := range outcomes {
		if o.err != nil {
			failed++
			fmt.Printf("# FAILED %s: %v\n", o.label, o.err)
		}
	}
	fmt.Printf("# runs: %d attempted, %d failed, failed_frac %.4f, %.1f s\n",
		len(outcomes), failed, float64(failed)/float64(max(len(outcomes), 1)), time.Since(start).Seconds())

	rec := record{Stamp: st, Workload: w.name, Seed: seed, Trace: traced, Correct: failed == 0,
		Attempted: len(outcomes), Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("internal: metric %s not measured", d.name)
		}
		rec.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-40s %16.6f %s\n", d.name, v, d.unit)
	}
	if out != "" {
		if err := writeRecord(out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeExpected replaces one workload's digests in perfbench/expected.json
// on disk (the binary embeds the file as it was built).
func writeExpected(name string, digests []string) error {
	path := filepath.Join("perfbench", "expected.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var exp expected
	if err := json.Unmarshal(b, &exp); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	exp[name] = digests
	if b, err = json.MarshalIndent(exp, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
