package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dxbar"
	"dxbar/internal/sim"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "step", parent: -1, start: 0, end: 100},
		{name: "gen", parent: 0, start: 10, end: 30},
		{name: "router", parent: 0, start: 25, end: 60},  // overlaps gen by 5
		{name: "router", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "step", parent: -1, start: 200, end: 250},
		{name: "gen", parent: 4, start: 210, end: -1}, // unfinished: ignored
	}
	lt := selfTimes(spans, nil)
	// Children of the first step cover [10,60) and [90,100): 60 ns.
	if got := lt["step"]; got.count != 2 || got.total != 150 || got.self != 40+50 {
		t.Errorf("step = %+v, want count 2, total 150, self 90", got)
	}
	if got := lt["router"]; got.count != 2 || got.total != 65 || got.self != 65 {
		t.Errorf("router = %+v, want count 2, total 65, self 65", got)
	}
	if got := lt["gen"]; got.count != 1 || got.total != 20 {
		t.Errorf("gen = %+v, want the finished span only", got)
	}
	only := selfTimes(spans, func(s span) bool { return s.start >= 200 })
	if got := only["step"]; got.count != 1 || got.self != 50 {
		t.Errorf("filtered step = %+v, want one span with self 50", got)
	}
}

func TestWindowQuantiles(t *testing.T) {
	if _, _, err := windowQuantiles(make([]float64, minWindows-1)); err == nil {
		t.Fatalf("%d windows accepted, want an error", minWindows-1)
	}
	ns := make([]float64, 100)
	for i := range ns {
		ns[len(ns)-1-i] = float64(i + 1) // unsorted input
	}
	p50, p90, err := windowQuantiles(ns)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p50-50.5) > 1e-9 || math.Abs(p90-90.1) > 1e-9 {
		t.Errorf("p50, p90 = %v, %v; want 50.5, 90.1", p50, p90)
	}
	if ns[0] != 100 {
		t.Error("windowQuantiles reordered its input")
	}
}

func TestNodeCyclesPerSecMixedMeshes(t *testing.T) {
	got := nodeCyclesPerSec([]measured{
		{nodes: 64, cycles: 1000, seconds: 0.5},  // 8x8
		{nodes: 4096, cycles: 100, seconds: 1.5}, // 64x64
	})
	want := (64*1000 + 4096*100) / 2.0
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("nodeCyclesPerSec = %v, want %v", got, want)
	}
	if nodeCyclesPerSec(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

// smallSpec is a short 4x4 network for the tests.
func smallSpec(d dxbar.Design) netSpec {
	return netSpec{design: d, routing: "DOR", w: 4, h: 4, load: 0.3,
		warmup: 200, measure: 400, window: 20}
}

func TestDigestStableAcrossRuns(t *testing.T) {
	for _, d := range []dxbar.Design{dxbar.DesignDXbar, dxbar.DesignSCARAB, dxbar.DesignAFC} {
		a, err := runNetwork(smallSpec(d), 3, runOpts{audit: true})
		if err != nil || a.audit != nil {
			t.Fatalf("%s: %v / audit %v", d, err, a.audit)
		}
		b, err := runNetwork(smallSpec(d), 3, runOpts{})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		c, err := runNetwork(smallSpec(d), 3, runOpts{tr: tr, parent: -1, every: 3})
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest || a.digest != c.digest {
			t.Errorf("%s: digests %s (audited) %s (plain) %s (traced) differ", d, a.digest, b.digest, c.digest)
		}
		if c.sampled == 0 || len(c.windows) != 20 {
			t.Errorf("%s: traced run sampled %d cycles over %d windows", d, c.sampled, len(c.windows))
		}
		other, err := runNetwork(smallSpec(d), 4, runOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if other.digest == a.digest {
			t.Errorf("%s: seeds 3 and 4 give the same digest", d)
		}
	}
}

// The NewNetwork-driven run must reproduce dxbar.Run's statistics for the
// same configuration, and the digest must ignore wall-clock shard fields.
func TestNetworkMatchesRun(t *testing.T) {
	spec := smallSpec(dxbar.DesignBuffered8)
	nr, err := runNetwork(spec, 5, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dxbar.Run(spec.config(5))
	if err != nil {
		t.Fatal(err)
	}
	if coreDigest(nr.res) != coreDigest(res) {
		t.Error("NewNetwork-driven run differs from dxbar.Run")
	}
	d0, _ := digest(res)
	res.ShardProfile = []sim.ShardProfile{{Shard: 0, RouterPhase: time.Second}}
	res.ShardImbalance, res.ShardRebalances, res.ShardNodesMigrated = 1.5, 3, 7
	if d1, _ := digest(res); d1 != d0 {
		t.Error("digest depends on the shard profile")
	}
}

func TestPointTimerPerGoroutine(t *testing.T) {
	pt := newPointTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				time.Sleep(2 * time.Millisecond)
				pt.done()
			}
		}()
	}
	wg.Wait()
	if len(pt.points) != 6 {
		t.Fatalf("%d points, want 6", len(pt.points))
	}
	for _, s := range pt.seconds() {
		// Each point is one sleep, not the gap since the other
		// goroutine's completion.
		if s < 0.002 || s > 0.5 {
			t.Errorf("point took %v s, want about 0.002", s)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := record{Stamp: stamp{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.24", Rev: "r1"}, Workload: "ur8x8", Seed: 42,
		Metrics: map[string]metric{"wall_s": {Value: 2, Unit: "s"}}}
	b := a
	b.Stamp.Rev = "r2"
	b.Metrics = map[string]metric{"wall_s": {Value: 1.5, Unit: "s"}}
	var out bytes.Buffer
	if err := compareRecords(&out, a, b); err != nil {
		t.Fatalf("same host, different revs: %v", err)
	}
	if !strings.Contains(out.String(), "-25.00%") {
		t.Errorf("compare output lacks the delta:\n%s", out.String())
	}
	for _, mod := range []func(*record){
		func(r *record) { r.Stamp.CPU = "y" },
		func(r *record) { r.Stamp.NProc = 4 },
		func(r *record) { r.Stamp.GOMAXPROCS = 1 },
		func(r *record) { r.Stamp.Go = "go1.22" },
		func(r *record) { r.Seed = 1 },
	} {
		c := b
		mod(&c)
		if err := compareRecords(&out, a, c); err == nil {
			t.Errorf("compared %+v with %+v", a.Stamp, c.Stamp)
		}
	}
}

func TestEveryMetricHasAUnitAndAName(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if seen[d.name] || d.unit == "" {
			t.Errorf("metric %q duplicated or without unit", d.name)
		}
		seen[d.name] = true
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints, with
// the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var cfg struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer())
	names := map[string]bool{}
	for _, w := range workloads() {
		names[w.name] = true
	}
	for _, w := range cfg.Workloads {
		if !names[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is not a benchmark workload", w.Name)
		}
	}
}

func TestAddWindows(t *testing.T) {
	sum := addWindows(nil, []float64{1, 2, 3})
	sum = addWindows(sum, []float64{10, 20, 30, 40})
	if len(sum) != 3 || sum[0] != 11 || sum[1] != 22 || sum[2] != 33 {
		t.Errorf("addWindows = %v, want [11 22 33]", sum)
	}
}
