package hcc_test

import (
	"context"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// TestCompileOnlyReadsItsInput compiles one build of every SPEC
// analogue twice at every level. Each compile must leave the input's
// fingerprint, function and global counts and NextUID as they were, and
// both must agree with a compile of a fresh build: the same Fingerprint
// and the same sim.Run Result.
func TestCompileOnlyReadsItsInput(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := get(t, name)
			p := w.Prog
			fp, funcs, globals, uids := p.Fingerprint(w.Entry), len(p.Funcs), len(p.Globals), p.NextUID
			for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
				opts := hcc.Options{Level: level, Cores: 4, TrainArgs: w.TrainArgs}
				run := func(w *workloads.Workload) (string, sim.Result) {
					t.Helper()
					c, err := hcc.Compile(w.Prog, w.Entry, opts)
					if err != nil {
						t.Fatalf("%v: %v", level, err)
					}
					res, err := sim.Run(ctx, w.Prog, c, w.Entry, sim.HelixRC(4), w.TrainArgs...)
					if err != nil {
						t.Fatalf("%v: %v", level, err)
					}
					return c.Fingerprint(), *res
				}
				fresh, freshRes := run(get(t, name))
				for i := range 2 {
					got, res := run(w)
					if f := p.Fingerprint(w.Entry); f != fp || len(p.Funcs) != funcs || len(p.Globals) != globals || p.NextUID != uids {
						t.Fatalf("%v: compile %d changed its input: %d funcs, %d globals, NextUID %d, fingerprint %s; was %d, %d, %d, %s",
							level, i+1, len(p.Funcs), len(p.Globals), p.NextUID, f, funcs, globals, uids, fp)
					}
					if got != fresh {
						t.Errorf("%v: compile %d of one build has fingerprint %q, a fresh build's %q", level, i+1, got, fresh)
					}
					if res != freshRes {
						t.Errorf("%v: compile %d of one build runs to %+v, a fresh build's to %+v", level, i+1, res, freshRes)
					}
				}
			}
		})
	}
}
