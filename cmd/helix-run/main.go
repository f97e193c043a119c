// helix-run compiles and simulates one benchmark analogue end to end.
//
// Usage:
//
//	helix-run -bench 175.vpr -level 3 -cores 16 [-ring=false] [-link 1]
//	helix-run -bench 175.vpr -cachedir .cache   # reuse persisted traces
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"helixrc"
	"helixrc/internal/cliutil"
	"helixrc/internal/harness"
	"helixrc/internal/sim"
)

func main() {
	bench := flag.String("bench", "175.vpr", "benchmark name (see -list)")
	level := flag.Int("level", 3, "compiler generation: 1, 2 or 3")
	cores := flag.Int("cores", 16, "core count")
	ring := flag.Bool("ring", true, "enable the ring cache (false = conventional coherence)")
	link := flag.Int("link", 1, "ring link latency in cycles")
	sigbw := flag.Int("sigbw", 5, "ring signal bandwidth (0 = unbounded)")
	nodeKB := flag.Int("nodebytes", 1024, "ring node array bytes (0 = unbounded)")
	cacheDir := flag.String("cachedir", "", "artifact store disk tier; warm runs replay persisted traces instead of re-simulating")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(helixrc.Workloads(), "\n"))
		return
	}

	// Validate numeric flags at the edge so a typo fails with the
	// accepted range instead of a confusing downstream error.
	for _, err := range []error{
		cliutil.CheckLevel(*level),
		cliutil.CheckCores(*cores),
		cliutil.CheckNonNegative("link", *link, "cycles"),
		cliutil.CheckNonNegative("sigbw", *sigbw, "0 = unbounded"),
		cliutil.CheckNodeBytes("nodebytes", *nodeKB, *cores),
	} {
		if err != nil {
			log.Fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var arch helixrc.Platform
	if *ring {
		arch = helixrc.HelixRC(*cores)
		arch.Ring.LinkLatency = *link
		arch.Ring.SignalBandwidth = *sigbw
		arch.Ring.ArrayBytes = *nodeKB
	} else {
		arch = helixrc.Conventional(*cores)
	}

	var (
		w    *helixrc.Workload
		comp *helixrc.Compiled
		seq  *helixrc.Result
		par  *helixrc.Result
		err  error
	)
	if *cacheDir != "" {
		// Cached path: compilations, sequential baselines and parallel
		// traces all go through the stores of a harness Env over the
		// cache dir, so a warm run replays persisted traces instead of
		// re-simulating.
		env := harness.New(harness.Options{CacheDir: *cacheDir, CacheBudget: harness.DefaultCacheBudget})
		w, err = helixrc.LoadWorkload(*bench)
		if err != nil {
			log.Fatal(err)
		}
		seq, err = env.CachedBaseline(ctx, *bench, helixrc.Conventional(*cores), true)
		if err != nil {
			log.Fatal(err)
		}
		par, comp, err = env.CachedRun(ctx, *bench, helixrc.Level(*level), arch, true)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		w, err = helixrc.LoadWorkload(*bench)
		if err != nil {
			log.Fatal(err)
		}
		comp, err = helixrc.Compile(w.Prog, w.Entry, helixrc.Options{
			Level: helixrc.Level(*level), Cores: *cores, TrainArgs: w.TrainArgs,
		})
		if err != nil {
			log.Fatal(err)
		}
		seq, err = helixrc.SimulateContext(ctx, w.Prog, nil, w.Entry, helixrc.Conventional(*cores), w.RefArgs...)
		if err != nil {
			log.Fatal(err)
		}
		par, err = helixrc.SimulateContext(ctx, w.Prog, comp, w.Entry, arch, w.RefArgs...)
		if err != nil {
			log.Fatal(err)
		}
	}
	if seq.RetValue != par.RetValue {
		fmt.Fprintf(os.Stderr, "FUNCTIONAL MISMATCH: %d != %d\n", par.RetValue, seq.RetValue)
		os.Exit(1)
	}

	fmt.Printf("%s, %s, %d cores, ring=%v\n", w.Name, helixrc.Level(*level), *cores, *ring)
	fmt.Printf("parallelized loops: %d (coverage %.1f%%)\n", len(comp.Loops), 100*comp.Coverage)
	for _, pl := range comp.Loops {
		fmt.Printf("  %-30s cov %5.1f%%  iter %4.0f instrs  trip %5.0f  segs %d  counted=%v\n",
			pl.Body.Name, 100*pl.Coverage, pl.AvgIterLen, pl.AvgTripCount, pl.NumSegs, pl.Counted)
	}
	fmt.Printf("sequential: %d cycles\n", seq.Cycles)
	fmt.Printf("parallel:   %d cycles  speedup %.2fx\n", par.Cycles, helixrc.Speedup(seq, par))
	fmt.Printf("iterations run: %d over %d invocations\n", par.IterationsRun, par.LoopInvocations)
	o := par.Overheads
	fmt.Printf("overheads: ")
	for i, s := range o.Shares() {
		fmt.Printf("%s %.1f%%  ", sim.ShareNames[i], 100*s)
	}
	fmt.Println()
}
