// Package sim is the execution-driven multicore simulator: it runs a
// program compiled by HCC, executing sequential code on core 0 and the
// iterations of each parallelized loop round-robin across the ring of
// cores, with cycle accounting from the cpu, mem and ringcache models.
//
// Because HELIX only communicates forward in iteration order, the
// simulator processes iterations in order and resolves all communication
// and synchronization times in closed form — no global cycle stepping.
// Functional execution happens in the same pass (iteration order equals
// sequential order for all shared state), so every run also validates the
// compiler: a miscompiled loop produces wrong output, and dynamic checks
// assert the paper's code properties (shared accesses only inside their
// segment, one signal per segment per iteration).
package sim

import (
	"helixrc/internal/cpu"
	"helixrc/internal/mem"
	"helixrc/internal/ringcache"
)

// Config describes the simulated platform.
type Config struct {
	Cores int
	Core  cpu.Config
	Mem   mem.Config
	Ring  ringcache.Config

	// Decoupling switches (Figure 8). On a HELIX-RC machine all three are
	// true; a conventional machine has none. Register communication means
	// the compiler-allocated slots for shared registers; memory
	// communication covers all other shared data (and the loop-control
	// word); synchronization covers wait/signal.
	DecoupleReg  bool
	DecoupleMem  bool
	DecoupleSync bool

	// PerfectMem makes all memory single-cycle and communication free —
	// the abstract machine used for the paper's TLP measurement (§6.2).
	PerfectMem bool

	// MaxSteps bounds total simulated instructions (0 = default 2^32).
	MaxSteps int64
}

// effectiveMaxSteps resolves the step-budget default shared by every
// execution path (run, replay, batched replay): MaxSteps <= 0 means
// the 2^32 default.
func (c Config) effectiveMaxSteps() int64 {
	if c.MaxSteps <= 0 {
		return 1 << 32
	}
	return c.MaxSteps
}

// HelixRC returns the paper's default HELIX-RC platform: n in-order
// 2-way cores, the default memory hierarchy, and a ring cache with 1KB
// nodes, single-cycle links and five-signal bandwidth.
func HelixRC(n int) Config {
	return Config{
		Cores:        n,
		Core:         cpu.InOrder2(),
		Mem:          mem.DefaultConfig(),
		Ring:         ringcache.DefaultConfig(n),
		DecoupleReg:  true,
		DecoupleMem:  true,
		DecoupleSync: true,
	}
}

// Conventional returns the same platform without a ring cache: shared
// data and synchronization go through the coherent cache hierarchy with
// its (optimistically low) cache-to-cache latency.
func Conventional(n int) Config {
	return Config{
		Cores: n,
		Core:  cpu.InOrder2(),
		Mem:   mem.DefaultConfig(),
	}
}

// Abstract returns the communication-free 1-IPC machine used to measure
// TLP independent of communication overhead and pipeline effects.
func Abstract(n int) Config {
	c := HelixRC(n)
	c.Core = cpu.Config{Name: "abstract", Width: 1}
	c.PerfectMem = true
	return c
}
