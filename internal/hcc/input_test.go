package hcc_test

import (
	"sync"
	"testing"

	"helixrc/internal/alias"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/workloads"
)

// TestSharedInputMatchesFresh prepares one Input per SPEC analogue and
// trains and compiles it from concurrent goroutines at every level and
// alias tier for 4 and 16 cores (the race detector checks that the
// lazily filled analyses are shared safely). Every compile must decide
// what a one-shot compile of a fresh workloads.Get build decides.
func TestSharedInputMatchesFresh(t *testing.T) {
	type config struct {
		level       hcc.Level
		cores, tier int
	}
	coreCounts := []int{4, 16}
	var configs []config
	for _, cores := range coreCounts {
		for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
			for tier := 0; tier <= len(alias.Tiers); tier++ {
				configs = append(configs, config{level, cores, tier})
			}
		}
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := get(t, name)
			in, err := hcc.Prepare(w.Prog)
			if err != nil {
				t.Fatal(err)
			}
			// The first compile at each core count trains its profile;
			// the others wait for it.
			train := map[int]func() (*interp.Profile, error){}
			for _, cores := range coreCounts {
				train[cores] = sync.OnceValues(func() (*interp.Profile, error) {
					return in.Train(w.Entry, hcc.Options{Cores: cores, TrainArgs: w.TrainArgs})
				})
			}
			got := make([]string, len(configs))
			errs := make([]error, len(configs))
			var wg sync.WaitGroup
			for i, c := range configs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					opts := hcc.Options{Level: c.level, Cores: c.cores, TrainArgs: w.TrainArgs, AliasTier: c.tier}
					prof, err := train[c.cores]()
					if err != nil {
						errs[i] = err
						return
					}
					comp, err := in.CompileWith(w.Entry, opts, prof)
					if err != nil {
						errs[i] = err
						return
					}
					got[i] = summary(w, comp)
				}()
			}
			wg.Wait()

			fresh := get(t, name)
			profs := map[int]*interp.Profile{}
			for i, c := range configs {
				if errs[i] != nil {
					t.Fatalf("%v c%d t%d: %v", c.level, c.cores, c.tier, errs[i])
				}
				opts := hcc.Options{Level: c.level, Cores: c.cores, TrainArgs: fresh.TrainArgs, AliasTier: c.tier}
				if profs[c.cores] == nil {
					if profs[c.cores], err = hcc.Train(fresh.Prog, fresh.Entry, opts); err != nil {
						t.Fatal(err)
					}
				}
				comp, err := hcc.CompileWith(fresh.Prog, fresh.Entry, opts, profs[c.cores])
				if err != nil {
					t.Fatal(err)
				}
				if want := summary(fresh, comp); got[i] != want {
					t.Errorf("%v c%d t%d: the shared input compiles to\n%s\na fresh build to\n%s", c.level, c.cores, c.tier, got[i], want)
				}
			}
		})
	}
}

// BenchmarkCompileGrid prepares each SPEC analogue once per op and
// compiles it at every level, at 2, 4, 8 and 16 cores and at alias
// tiers 1-5, from profiles trained before the timer starts: the compile
// work of a wide explore sweep, without its recordings and replays.
func BenchmarkCompileGrid(b *testing.B) {
	type input struct {
		w     *workloads.Workload
		profs map[int]*interp.Profile
	}
	coreCounts := []int{2, 4, 8, 16}
	var inputs []input
	for _, name := range workloads.Names() {
		w := get(b, name)
		profs := map[int]*interp.Profile{}
		for _, cores := range coreCounts {
			prof, err := hcc.Train(w.Prog, w.Entry, hcc.Options{Cores: cores, TrainArgs: w.TrainArgs})
			if err != nil {
				b.Fatal(err)
			}
			profs[cores] = prof
		}
		inputs = append(inputs, input{w, profs})
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, x := range inputs {
			in, err := hcc.Prepare(x.w.Prog)
			if err != nil {
				b.Fatal(err)
			}
			for _, cores := range coreCounts {
				for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
					for tier := 1; tier <= len(alias.Tiers); tier++ {
						opts := hcc.Options{Level: level, Cores: cores, TrainArgs: x.w.TrainArgs, AliasTier: tier}
						if _, err := in.CompileWith(x.w.Entry, opts, x.profs[cores]); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
}
