package hcc_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"helixrc/internal/alias"
	"helixrc/internal/hcc"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
	"helixrc/internal/workloads"
)

// summary renders everything a compilation decided: coverage, the
// selected loops with their estimates, the rejected loops with their
// reasons and estimates, and the fingerprint of the program it emitted.
func summary(w *workloads.Workload, c *hcc.Compiled) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "coverage %v\n", c.Coverage)
	for _, pl := range c.Loops {
		fmt.Fprintf(&sb, "loop %d %s@%s est %v cov %v iter %v trip %v\n",
			pl.ID, pl.Fn.Name, pl.Header.Name, pl.EstSpeedup, pl.Coverage, pl.AvgIterLen, pl.AvgTripCount)
	}
	for _, rej := range c.Rejected {
		fmt.Fprintf(&sb, "rejected %s@%s %q est %v\n", rej.Fn.Name, rej.Loop.Header.Name, rej.Reason, rej.Estimate)
	}
	fmt.Fprintf(&sb, "program %s\n", c.Prog.Fingerprint(w.Entry))
	return sb.String()
}

func get(t testing.TB, name string) *workloads.Workload {
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func registerScenarios(t testing.TB) {
	for _, f := range irgen.Families() {
		pack, err := scenarios.DefaultPack(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := scenarios.RegisterPack(pack); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompileWithSharedProfileMatchesCompile trains one profile per
// SPEC analogue and scenario on a build of its own, then compiles a
// separate fresh build at every level and alias tier from it: each
// compilation must decide exactly what Compile, which trains its own,
// decides.
func TestCompileWithSharedProfileMatchesCompile(t *testing.T) {
	registerScenarios(t)
	for _, name := range workloads.Registered() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tw := get(t, name)
			prof, err := hcc.Train(tw.Prog, tw.Entry, hcc.Options{Cores: 16, TrainArgs: tw.TrainArgs})
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
				for tier := 0; tier <= len(alias.Tiers); tier++ {
					opts := hcc.Options{Level: level, Cores: 16, TrainArgs: tw.TrainArgs, AliasTier: tier}
					ws := get(t, name)
					shared, err := hcc.CompileWith(ws.Prog, ws.Entry, opts, prof)
					if err != nil {
						t.Fatalf("%v tier %d: CompileWith: %v", level, tier, err)
					}
					wo := get(t, name)
					own, err := hcc.Compile(wo.Prog, wo.Entry, opts)
					if err != nil {
						t.Fatalf("%v tier %d: Compile: %v", level, tier, err)
					}
					if got, want := summary(ws, shared), summary(wo, own); got != want {
						t.Fatalf("%v tier %d: shared profile compiles differently:\n%s\nwant:\n%s", level, tier, got, want)
					}
				}
			}
		})
	}
}

// TestConcurrentCompilesShareProfile compiles V1, V2 and V3 of one
// workload at once from one profile (the race detector checks that
// nothing writes it) and requires each result to match a sequential
// Compile.
func TestConcurrentCompilesShareProfile(t *testing.T) {
	const name = "181.mcf"
	tw := get(t, name)
	prof, err := hcc.Train(tw.Prog, tw.Entry, hcc.Options{Cores: 16, TrainArgs: tw.TrainArgs})
	if err != nil {
		t.Fatal(err)
	}
	levels := []hcc.Level{hcc.V1, hcc.V2, hcc.V3}
	got := make([]string, len(levels))
	errs := make([]error, len(levels))
	var wg sync.WaitGroup
	for i, level := range levels {
		w := get(t, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := hcc.CompileWith(w.Prog, w.Entry, hcc.Options{Level: level, Cores: 16, TrainArgs: w.TrainArgs}, prof)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = summary(w, c)
		}()
	}
	wg.Wait()
	for i, level := range levels {
		if errs[i] != nil {
			t.Fatalf("%v: %v", level, errs[i])
		}
		w := get(t, name)
		c, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: level, Cores: 16, TrainArgs: w.TrainArgs})
		if err != nil {
			t.Fatal(err)
		}
		if want := summary(w, c); got[i] != want {
			t.Errorf("%v: concurrent shared-profile compile differs:\n%s\nwant:\n%s", level, got[i], want)
		}
	}
}

// TestCompileWithRefusesForeignProfile pins that a profile only serves
// the inputs it was trained on: another core count, other training
// args, another budget or another program is an error, not a silently
// different selection.
func TestCompileWithRefusesForeignProfile(t *testing.T) {
	tw := get(t, "164.gzip")
	prof, err := hcc.Train(tw.Prog, tw.Entry, hcc.Options{Cores: 16, TrainArgs: tw.TrainArgs})
	if err != nil {
		t.Fatal(err)
	}
	args := append([]int64(nil), tw.TrainArgs...)
	args[0]++
	for label, c := range map[string]struct {
		name string
		opts hcc.Options
	}{
		"cores":   {"164.gzip", hcc.Options{Cores: 8, TrainArgs: tw.TrainArgs}},
		"args":    {"164.gzip", hcc.Options{Cores: 16, TrainArgs: args}},
		"budget":  {"164.gzip", hcc.Options{Cores: 16, TrainArgs: tw.TrainArgs, ProfileBudget: 1 << 20}},
		"program": {"175.vpr", hcc.Options{Cores: 16, TrainArgs: tw.TrainArgs}},
	} {
		w := get(t, c.name)
		if _, err := hcc.CompileWith(w.Prog, w.Entry, c.opts, prof); err == nil {
			t.Errorf("%s: CompileWith accepted a profile trained on other inputs", label)
		}
	}
}
