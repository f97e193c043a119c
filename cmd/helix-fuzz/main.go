// helix-fuzz sweeps generator seeds through the differential oracle
// matrix (see internal/difftest), shrinking any failure to a minimal
// reproducer. It complements `go test -fuzz=FuzzDifferential
// ./internal/difftest`: the native fuzzer explores mutated inputs under
// coverage guidance, this driver does wide deterministic seed sweeps in
// parallel and emits corpus files.
//
//	helix-fuzz -seeds 1000                  # sweep seeds 0..999
//	helix-fuzz -start 5000 -seeds 200 -v    # a different window, chatty
//	helix-fuzz -seeds 50 -emit testdata     # write corpus entries
//	helix-fuzz -repro file.hir              # re-run one corpus file
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"helixrc/internal/artifact"
	"helixrc/internal/difftest"
	"helixrc/internal/harness"
	"helixrc/internal/hcc"
	"helixrc/internal/irgen"
)

func main() {
	var (
		start    = flag.Uint64("start", 0, "first generator seed")
		seeds    = flag.Uint64("seeds", 100, "number of seeds to sweep")
		out      = flag.String("out", "", "directory for minimized failure reproducers")
		emit     = flag.String("emit", "", "emit passing seeds as corpus files into this directory")
		repro    = flag.String("repro", "", "re-check a single corpus file and exit")
		budget   = flag.Int64("budget", 0, "interpreter/simulator step budget (0 = default)")
		trials   = flag.Int("shrink", 600, "max shrink trials per failure")
		parallel = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
		quick    = flag.Bool("quick", false, "narrow oracle matrix (single level/core pair per seed)")
		verbose  = flag.Bool("v", false, "log every seed")
	)
	flag.Parse()
	if !*verbose {
		// Cache-eviction notices would interleave with sweep output.
		artifact.SetQuiet()
	}

	if *repro != "" {
		os.Exit(reproduceFile(*repro, *budget))
	}

	// SIGINT/SIGTERM cancel in-flight seed checks; the pool drains and
	// the failures found so far are still reported (flagged interrupted).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type verdict struct {
		seed uint64
		fail *difftest.Failure
	}
	// Failures are collected out-of-band so an interrupted sweep still
	// reports everything found before the cancellation.
	var mu sync.Mutex
	var found []verdict
	swept := 0
	_, err := harness.ParMap(ctx, *parallel, int(*seeds), func(ctx context.Context, i int) (struct{}, error) {
		seed := *start + uint64(i)
		opt := difftest.Options{Budget: *budget}
		if *quick {
			opt.Levels = []hcc.Level{hcc.Level(1 + seed%3)}
			opt.Cores = []int{[]int{1, 2, 4, 8, 16}[seed%5]}
			opt.SkipCross = true
		}
		f := difftest.Check(ctx, difftest.FromSeed(seed), opt)
		if f != nil {
			f = difftest.Shrink(ctx, f, opt, *trials)
		}
		if *verbose {
			status := "ok"
			if f != nil {
				status = "FAIL " + f.Stage
			}
			fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, status)
		}
		mu.Lock()
		if ctx.Err() == nil {
			swept++
		}
		if f != nil {
			found = append(found, verdict{seed, f})
		}
		mu.Unlock()
		return struct{}{}, nil
	})
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seed < found[j].seed })
	failures := 0
	for _, v := range found {
		failures++
		fmt.Printf("seed %d: %v\n", v.seed, v.fail)
		if *out != "" {
			name := filepath.Join(*out, fmt.Sprintf("fail_seed%d_%s.hir", v.seed, v.fail.Stage))
			if err := os.MkdirAll(*out, 0o755); err == nil {
				err = os.WriteFile(name, []byte(difftest.Reproduce(v.fail)), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", name, err)
			} else {
				fmt.Printf("  minimized reproducer: %s\n", name)
			}
		}
	}
	if *emit != "" && !interrupted {
		if err := emitCorpus(*emit, *start, *seeds, *budget); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if interrupted {
		fmt.Printf("INTERRUPTED: swept %d of %d seeds from %d: %d failures\n", swept, *seeds, *start, failures)
		os.Exit(1)
	}
	fmt.Printf("swept %d seeds from %d: %d failures\n", *seeds, *start, failures)
	if failures > 0 {
		os.Exit(1)
	}
}

// reproduceFile replays one corpus file through the full matrix.
func reproduceFile(path string, budget int64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	text, args, err := difftest.SplitCorpusFile(string(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if f := difftest.Check(context.Background(), difftest.FromText(text, args), difftest.Options{Budget: budget}); f != nil {
		fmt.Printf("%s: %v\n", path, f)
		return 1
	}
	fmt.Printf("%s: ok\n", path)
	return 0
}

// emitCorpus writes each passing seed whose compile selects at least one
// parallel loop as a corpus file (these are the interesting regression
// inputs; seeds that never parallelize exercise nothing new).
func emitCorpus(dir string, start, seeds uint64, budget int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := 0
	for seed := start; seed < start+seeds; seed++ {
		p, f, args := irgen.Generate(seed)
		comp, err := hcc.Compile(p, f, hcc.Options{TrainArgs: args, MinSpeedup: 1.0})
		if err != nil || len(comp.Loops) == 0 {
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "# seed: %d (loops selected at V3/16c: %d)\n# args:", seed, len(comp.Loops))
		for _, a := range args {
			fmt.Fprintf(&sb, " %d", a)
		}
		sb.WriteByte('\n')
		sb.WriteString(p.Text(f))
		name := filepath.Join(dir, fmt.Sprintf("gen_seed%d.hir", seed))
		if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
			return err
		}
		written++
	}
	fmt.Printf("emitted %d corpus files to %s\n", written, dir)
	return nil
}
