package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the simulator.
// Spans of one simulated run share a run id; parent is the index of the span
// that caused this one, or -1 for a root.
type span struct {
	name       string
	run        int32
	parent     int32
	start, end int64 // ns since the tracer's base
}

// tracer keeps every span in memory; write emits them as Chrome trace-event
// JSON once the benchmark is done.
type tracer struct {
	base  time.Time
	spans []span
	run   int32
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// newRun starts a new run id for the spans that follow.
func (t *tracer) newRun() { t.run++ }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, run: t.run, parent: parent, start: t.now(), end: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = t.now() }

// add records a finished span.
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, run: t.run, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// layerTime is the time the spans of one name took in total and the part of
// it not covered by their child spans.
type layerTime struct {
	count       int
	total, self int64 // ns
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the union of its children's intervals clipped to the
// span. Unfinished spans, and spans keep rejects (nil keeps all), are
// ignored.
func selfTimes(spans []span, keep func(span) bool) map[string]layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 && (keep == nil || keep(s)) {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		if s.end < 0 || (keep != nil && !keep(s)) {
			continue
		}
		dur := s.end - s.start
		lt := out[s.name]
		lt.count++
		lt.total += dur
		lt.self += dur - covered(children[int32(i)], s.start, s.end)
		out[s.name] = lt
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// chromeEvent mirrors the trace-event fields the flight recorder's export
// uses, with host microseconds as the time unit.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write emits the spans as Chrome trace-event JSON (one track per run),
// loadable in ui.perfetto.dev or chrome://tracing.
func (t *tracer) write(path, label string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(e)
	}
	if err := emit(chromeEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": label}}); err != nil {
		return err
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		e := chromeEvent{
			Name: s.name, Cat: "layer", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Tid: s.run, Args: map[string]any{"id": i, "parent": s.parent},
		}
		if err := emit(e); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
