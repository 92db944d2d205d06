package dxbar

import (
	"dxbar/internal/coherence"
)

// SplashConfig describes one closed-loop SPLASH-2 (substitute) run.
type SplashConfig struct {
	// Design and Routing as in Config.
	Design  Design
	Routing string
	// Benchmark is one of the nine profile names (SplashBenchmarks).
	Benchmark string
	// Width and Height give the mesh dimensions (default 8×8 when both
	// are zero; setting only one is an error).
	Width, Height int
	// Seed drives the workload's deterministic randomness.
	Seed int64
	// MaxCycles aborts a run that fails to complete (default 3,000,000).
	MaxCycles uint64
	// DetailedCaches switches from the calibrated profile hit rates to
	// real set-associative L1/L2 caches (hit rates and writeback traffic
	// emerge from the benchmark's working set).
	DetailedCaches bool
}

// SplashResult summarizes one closed-loop run.
type SplashResult struct {
	// ExecutionCycles is the cycle at which the last processor finished
	// its memory-operation budget — the Fig. 9 metric.
	ExecutionCycles uint64
	// AvgEnergyNJ is the average network energy per delivered packet —
	// the Fig. 10 metric.
	AvgEnergyNJ float64
	// TotalEnergyNJ is the run's total network energy.
	TotalEnergyNJ float64
	// Packets is the number of protocol messages delivered.
	Packets uint64
	// AvgLatency is the mean packet network latency in cycles;
	// P50Latency/P99Latency/MaxLatency describe the tail of the same
	// distribution, and InFlightPackets counts protocol messages still in
	// the network when the run ended (non-zero only on aborted runs).
	AvgLatency      float64
	P50Latency      uint64
	P99Latency      uint64
	MaxLatency      uint64
	InFlightPackets uint64
	// Design, Routing and Benchmark echo the configuration.
	Design    Design
	Routing   string
	Benchmark string
}

// RunSplash executes one coherence-workload simulation to completion.
func RunSplash(c SplashConfig) (SplashResult, error) {
	return newRunner().runSplash(c)
}

// SplashBenchmarks lists the nine benchmark names in the paper's order.
func SplashBenchmarks() []string {
	profs := coherence.Profiles()
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	return names
}
