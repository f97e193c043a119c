// Package workloads builds the ten benchmark analogues used by the
// evaluation: six SPEC CINT2000 and four SPEC CFP2000 C programs
// re-expressed as IR programs whose hot loops reproduce the loop-level
// character the paper reports — iteration lengths (Figure 4a), dependence
// structure and distance (Figure 4b/c), trip counts, per-benchmark
// overhead mix (Figure 12) and compiler-version coverage (Table 1).
//
// The analogues are not the SPEC sources (which are licensed); each file
// documents which loops it models and which knobs were tuned to match the
// published statistics.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"helixrc/internal/ir"
)

// Class partitions the suite like the paper's figures.
type Class int

// Benchmark classes.
const (
	INT Class = iota
	FP
)

// String names the class.
func (c Class) String() string {
	if c == FP {
		return "CFP2000"
	}
	return "CINT2000"
}

// Workload is one runnable benchmark analogue.
type Workload struct {
	Name  string
	Class Class
	Prog  *ir.Program
	Entry *ir.Function
	// TrainArgs is the profiling/selection input; RefArgs the measured one.
	TrainArgs []int64
	RefArgs   []int64
	// Phases mirrors Table 1's SimPoint phase counts (metadata only).
	Phases int
	// PaperSpeedup is the HELIX-RC speedup Figure 12 reports, used by the
	// experiment harness to compare shapes.
	PaperSpeedup float64
	// PaperCoverage maps compiler level (1..3) to Table 1 coverage.
	PaperCoverage [4]float64
}

var (
	registryMu sync.RWMutex
	registry   = map[string]func() *Workload{
		"164.gzip":   Gzip,
		"175.vpr":    Vpr,
		"197.parser": Parser,
		"300.twolf":  Twolf,
		"181.mcf":    Mcf,
		"256.bzip2":  Bzip2,
		"183.equake": Equake,
		"179.art":    Art,
		"188.ammp":   Ammp,
		"177.mesa":   Mesa,
	}
)

// Register adds a named workload builder to the registry, making it
// resolvable through Get (and therefore through the whole cached
// harness path) alongside the ten SPEC analogues. The builder must be
// deterministic: the harness builds each workload once per process and
// keys artifacts by content fingerprint, so two calls must produce
// byte-identical textual IR. internal/scenarios registers its
// generated families here; Names() deliberately keeps reporting only
// the paper suite, so every figure stays byte-identical.
func Register(name string, build func() *Workload) error {
	if name == "" || build == nil {
		return fmt.Errorf("workloads: Register needs a name and a builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := registry[name]; ok {
		return fmt.Errorf("workloads: %q is already registered", name)
	}
	registry[name] = build
	return nil
}

// Names returns all workload names, INT first then FP, in paper order.
func Names() []string {
	return []string{
		"164.gzip", "175.vpr", "197.parser", "300.twolf", "181.mcf", "256.bzip2",
		"183.equake", "179.art", "188.ammp", "177.mesa",
	}
}

// IntNames returns the CINT2000 subset.
func IntNames() []string { return Names()[:6] }

// FPNames returns the CFP2000 subset.
func FPNames() []string { return Names()[6:] }

// Get builds a workload by name. Its program comes back numbered
// (ir.Program.AssignUIDs), so compiling, profiling and simulating it
// only read it, and one build may be shared by all of them.
func Get(name string) (*Workload, error) {
	registryMu.RLock()
	f, ok := registry[name]
	if !ok {
		defer registryMu.RUnlock()
		known := make([]string, 0, len(registry))
		for k := range registry {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("workloads: unknown %q (have %v)", name, known)
	}
	registryMu.RUnlock()
	w := f()
	w.Prog.AssignUIDs()
	return w, nil
}

// Registered lists every registered workload name in sorted order —
// the paper suite plus any generated scenarios — for tools that
// enumerate the full registry rather than the paper figures.
func Registered() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// lcg is a deterministic pseudo-random sequence for data initialization.
type lcg uint64

func newLCG(seed uint64) *lcg { l := lcg(seed*2862933555777941757 + 3037000493); return &l }

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 17)
}

// intn returns a value in [0, n).
func (l *lcg) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(l.next() % uint64(n))
}

// fill initializes a global with bounded pseudo-random values.
func fill(g *ir.Global, seed uint64, bound int64) {
	r := newLCG(seed)
	g.Init = make([]int64, g.Size)
	for i := range g.Init {
		g.Init[i] = r.intn(bound)
	}
}
