// helix-profile reports the HCC loop-selection decisions for a benchmark:
// every candidate loop, its profile statistics, the selection estimate and
// the accept/reject reason — the paper's Section 4 profiler in action.
//
// Usage:
//
//	helix-profile -bench 164.gzip -level 3
package main

import (
	"flag"
	"fmt"
	"log"

	"helixrc"
	"helixrc/internal/cliutil"
)

func main() {
	bench := flag.String("bench", "164.gzip", "benchmark name")
	level := flag.Int("level", 3, "compiler generation: 1, 2 or 3")
	cores := flag.Int("cores", 16, "target core count")
	flag.Parse()

	// Validate numeric flags at the edge so a typo fails with the
	// accepted range instead of a confusing downstream error.
	if err := cliutil.CheckLevel(*level); err != nil {
		log.Fatal(err)
	}
	if err := cliutil.CheckCores(*cores); err != nil {
		log.Fatal(err)
	}

	w, err := helixrc.LoadWorkload(*bench)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := helixrc.Compile(w.Prog, w.Entry, helixrc.Options{
		Level: helixrc.Level(*level), Cores: *cores, TrainArgs: w.TrainArgs,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s compiled with %s for %d cores (training input %v)\n\n",
		w.Name, helixrc.Level(*level), *cores, w.TrainArgs)
	fmt.Printf("selected loops (total coverage %.1f%%):\n", 100*comp.Coverage)
	for _, pl := range comp.Loops {
		fmt.Printf("  %-34s cov %5.1f%%  est %5.1fx  iter %5.0f instrs  trip %6.0f  segs %d  counted=%v\n",
			pl.Loop.String()+" in "+pl.Fn.Name, 100*pl.Coverage, pl.EstSpeedup,
			pl.AvgIterLen, pl.AvgTripCount, pl.NumSegs, pl.Counted)
		for _, seg := range pl.Segments {
			fmt.Printf("      segment %d: %d shared accesses, static span %d instrs\n",
				seg.ID, seg.MemberInstrs, seg.SpanInstrs)
		}
		if len(pl.Recompute) > 0 {
			fmt.Printf("      recomputed registers: %d\n", len(pl.Recompute))
		}
		if len(pl.Reductions) > 0 {
			fmt.Printf("      parallel reductions: %d\n", len(pl.Reductions))
		}
		if len(pl.SlotOf) > 0 {
			fmt.Printf("      shared registers demoted to slots: %d\n", len(pl.SlotOf))
		}
	}
	fmt.Printf("\nrejected loops:\n")
	for _, rej := range comp.Rejected {
		fmt.Printf("  %-34s %-42s est %5.2fx\n",
			rej.Loop.String()+" in "+rej.Fn.Name, rej.Reason, rej.Estimate)
	}
}
