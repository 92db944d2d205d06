package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// stamp identifies the host and the code a record was measured with.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
}

// hostStamp reads the CPU model from /proc/cpuinfo and the revision from
// the build's VCS stamp; outside a git checkout the revision is a hash of
// the Go sources under the working directory.
func hostStamp() stamp {
	s := stamp{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			s.Rev = rev + dirty
			return s
		}
	}
	s.Rev = sourceHash(".")
	return s
}

// sourceHash hashes every .go and go.mod file under root, skipping hidden
// directories such as build outputs, in path order.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(p); !d.IsDir() && (ext == ".go" || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// record is one benchmark run as written by -out.
type record struct {
	Stamp     stamp             `json:"stamp"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeRecord(path string, r record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints each metric of b relative to a. It refuses records
// from different hosts or toolchains (the revision may differ: that is
// what an A/B comparison compares) and records of different workloads,
// seeds or trace modes.
func compareRecords(w io.Writer, a, b record) error {
	ha, hb := a.Stamp, b.Stamp
	ha.Rev, hb.Rev = "", ""
	if ha != hb {
		return fmt.Errorf("records come from different hosts: %+v vs %+v", a.Stamp, b.Stamp)
	}
	if a.Workload != b.Workload || a.Seed != b.Seed || a.Trace != b.Trace {
		return fmt.Errorf("records measure different runs: %s/seed %d/trace %d vs %s/seed %d/trace %d",
			a.Workload, a.Seed, a.Trace, b.Workload, b.Seed, b.Trace)
	}
	fmt.Fprintf(w, "# %s seed %d, %s: %s -> %s\n", a.Workload, a.Seed, a.Stamp.CPU, a.Stamp.Rev, b.Stamp.Rev)
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Metrics[n], b.Metrics[n]
		delta := "n/a"
		if ma.Value != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %s %s\n", n, ma.Value, mb.Value, ma.Unit, delta)
	}
	return nil
}
