package harness

import (
	"context"
	"crypto/sha256"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/hcc"
	"helixrc/internal/irgen"
)

func TestPlanUnitsDeterministicAndDeduplicated(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	names := []string{"fig7", "fig9", "fig12"}
	a, err := e.PlanUnits(ctx, names, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.PlanUnits(ctx, names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no units planned")
	}
	if len(a) != len(b) {
		t.Fatalf("plan not deterministic: %d vs %d units", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("unit %d key differs across plans: %s vs %s", i, a[i].Key, b[i].Key)
		}
		if seen[a[i].Key] {
			t.Fatalf("duplicate unit %s: traces shared across experiments must merge", a[i].Key)
		}
		seen[a[i].Key] = true
		rks := map[string]bool{}
		for _, m := range a[i].members {
			for _, rk := range m.keys {
				if rks[rk] {
					t.Fatalf("unit %s plans result %s twice", a[i].Key, rk)
				}
				rks[rk] = true
			}
		}
	}
	// fig7 and fig12 share every baseline trace and the V3/HelixRC
	// trace per workload: the merged plan must be smaller than the sum
	// of the per-experiment plans.
	var sum int
	for _, n := range names {
		p, err := e.PlanUnits(ctx, []string{n}, 4)
		if err != nil {
			t.Fatal(err)
		}
		sum += len(p)
	}
	if len(a) >= sum {
		t.Fatalf("merged plan has %d units, per-experiment sum %d: nothing deduplicated", len(a), sum)
	}
}

// TestPlansNameTracesByContent pins the plans the benchmark's cold runs
// execute, on empty caches: the full evaluation at 16 cores plans one
// unit per distinct trace, 50 (58 when traces were named by request),
// and the wide explore sweep over the four checked-in packs plans 39
// (168). Each plan is exactly the work its figures read: the Result
// keys its units publish are the baseline and run keys of the trace
// figures' cells (or the grid's), none missing and none extra.
func TestPlansNameTracesByContent(t *testing.T) {
	env := New(Options{})
	ctx := context.Background()
	units, err := env.PlanUnits(ctx, ExperimentNames(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 50 {
		t.Errorf("the evaluation plans %d units, want 50", len(units))
	}
	var cells []simCell
	for _, e := range env.Experiments(16) {
		if e.cells != nil {
			cells = append(cells, e.cells()...)
		}
	}
	checkPlanReads(t, "the evaluation", units, cells)

	var grid []SweepConfig
	for _, cores := range []int{2, 4, 8, 16} {
		for tier := 1; tier <= 5; tier++ {
			for _, link := range []int{1, 2, 4, 8, 16, 32} {
				for _, signals := range []int{0, 1, 2, 5} {
					grid = append(grid, SweepConfig{Cores: cores, Tier: tier, Link: link, Signals: signals})
				}
			}
		}
	}
	names := registerPacks(t, irgen.Families()...)
	units, err = env.PlanSweep(ctx, names, hcc.V3, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 39 {
		t.Errorf("the wide explore sweep plans %d units, want 39", len(units))
	}
	checkPlanReads(t, "the wide explore sweep", units, sweepCells(names, hcc.V3, grid))
}

// checkPlanReads fails unless the Result keys units publish, each once,
// are exactly the keys cells read: every cell's baseline key and run
// key.
func checkPlanReads(t *testing.T, what string, units []WorkUnit, cells []simCell) {
	t.Helper()
	published := map[string]bool{}
	for _, u := range units {
		for _, m := range u.members {
			for _, k := range m.keys {
				if published[k] {
					t.Errorf("%s publishes %s twice", what, k)
				}
				published[k] = true
			}
		}
	}
	read := map[string]bool{}
	for _, c := range cells {
		b, err := workloadBuild(context.Background(), c.name)
		if err != nil {
			t.Fatal(err)
		}
		read[baseKey(c.name, true, c.base, b.fp)] = true
		read[resultKey(runKey(c.name, c.level, c.arch.Cores, c.tier, true, b.fp), c.arch)] = true
	}
	for k := range read {
		if !published[k] {
			t.Errorf("%s plans no unit publishing %s, which its cells read", what, k)
		}
	}
	for k := range published {
		if !read[k] {
			t.Errorf("%s plans %s, which no cell reads", what, k)
		}
	}
	t.Logf("%s: %d units publish the %d Results %d cells read", what, len(units), len(read), len(cells))
}

// TestPlanCancelled pins that a cancelled context stops the planner
// before it compiles, and that planning reports the cancellation.
func TestPlanCancelled(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.PlanUnits(ctx, []string{"fig9"}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("PlanUnits on a cancelled context = %v, want context.Canceled", err)
	}
	if n := e.Stats().Compiles; n != 0 {
		t.Errorf("a cancelled plan compiled %d times, want 0", n)
	}
}

// TestReportOrder pins the canonical report order a merge reassembles:
// paper experiments first in ExperimentNames order, then explore sweeps
// by family name, each once, and nothing else.
func TestReportOrder(t *testing.T) {
	in := []string{"explore:reduction", "fig9", "bogus", "fig1", ExploreName("contention"), "fig9", "explore:"}
	want := "fig1 fig9 explore:contention explore:reduction"
	if got := strings.Join(ReportOrder(in), " "); got != want {
		t.Errorf("ReportOrder(%q) = %s, want %s", in, got, want)
	}
}

// TestRunPlanTwoWorkersNoDuplicateRecordings races two workers, each
// its own Env over one cache directory as two processes would be, over
// one claim directory: every unit is claimed (and so recorded) exactly
// once, and the loser of each claim counts the suppressed duplicate.
func TestRunPlanTwoWorkersNoDuplicateRecordings(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// The second worker reads the first one's compiles, which planning
	// needs and the property under test does not.
	w1 := New(Options{CacheDir: dir})
	workers := []*Env{w1, sharingCompiles(w1, Options{CacheDir: dir})}
	units, err := w1.PlanUnits(ctx, []string{"fig9"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	claimDir := t.TempDir()
	claimers := []*artifact.Claimer{
		artifact.NewClaimer(claimDir, "w1", time.Minute),
		artifact.NewClaimer(claimDir, "w2", time.Minute),
	}
	var wg sync.WaitGroup
	for i, cl := range claimers {
		cl, e := cl, workers[i]
		u, err := e.PlanUnits(ctx, []string{"fig9"}, 4)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.RunPlan(ctx, u, cl)
		}()
	}
	wg.Wait()
	var recordings int64
	for _, e := range workers {
		recordings += e.Stats().Recordings
	}
	if want := int64(len(units)); recordings != want {
		t.Fatalf("recordings = %d; want exactly %d (one per unit, zero duplicates)", recordings, want)
	}
	var claims, steals int64
	for _, cl := range claimers {
		s := cl.Stats()
		claims += s.Claims
		steals += s.Steals
	}
	if claims != int64(len(units)) {
		t.Fatalf("claims = %d; want exactly %d (each unit claimed once)", claims, len(units))
	}
	if steals != 0 {
		t.Fatalf("steals = %d; want 0 (no lease expired)", steals)
	}
	disk := New(Options{CacheDir: dir})
	for i := range units {
		if !units[i].complete(disk) {
			t.Fatalf("unit %s incomplete after RunPlan", units[i].Key)
		}
	}
}

// TestRunPlanStealsExpiredLease simulates a worker that claims a unit
// and crashes: after its lease expires, a second worker steals the
// claim and completes the unit.
func TestRunPlanStealsExpiredLease(t *testing.T) {
	e, _ := newDiskEnv(t)
	ctx := context.Background()
	units, err := e.PlanUnits(ctx, []string{"fig9"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	claimDir := t.TempDir()
	crashed := artifact.NewClaimer(claimDir, "crashed", 20*time.Millisecond)
	if _, st, err := crashed.Acquire(units[0].Key); err != nil || st != artifact.ClaimAcquired {
		t.Fatalf("crashed.Acquire = %v, %v", st, err)
	}
	// The crashed worker never executes the unit or marks it done.
	time.Sleep(30 * time.Millisecond)
	b := artifact.NewClaimer(claimDir, "b", time.Minute)
	e.RunPlan(ctx, units, b)
	bs := b.Stats()
	if bs.Steals < 1 || bs.ExpiredLeases < 1 {
		t.Fatalf("stats = %+v; want at least one steal of the expired lease", bs)
	}
	if bs.Claims != int64(len(units)) {
		t.Fatalf("claims = %d; want %d (b did all the work)", bs.Claims, len(units))
	}
	for i := range units {
		if !units[i].complete(e) {
			t.Fatalf("unit %s incomplete after steal recovery", units[i].Key)
		}
	}
}

// TestRunPlanOutputByteIdentical pins the contract the report merger
// rests on: a figure generated from RunPlan-warmed caches is
// byte-identical to the same figure generated solo, whether the plan
// ran claimed (one -shard worker) or without a claimer (a solo run).
func TestRunPlanOutputByteIdentical(t *testing.T) {
	ctx := context.Background()

	solo, err := New(Options{}).Figure9(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	soloSum := sha256.Sum256([]byte(solo.Format()))

	for _, claimer := range []artifact.Claims{nil, artifact.NewClaimer(t.TempDir(), "w", time.Minute)} {
		// Fresh caches, warmed through the plan this time.
		e, _ := newDiskEnv(t)
		units, err := e.PlanUnits(ctx, []string{"fig9"}, 4)
		if err != nil {
			t.Fatal(err)
		}
		e.RunPlan(ctx, units, claimer)
		rec0 := e.Stats().Recordings
		warmed, err := e.Figure9(ctx, 4)
		if err != nil {
			t.Fatal(err)
		}
		if warmedSum := sha256.Sum256([]byte(warmed.Format())); warmedSum != soloSum {
			t.Fatalf("claimer %T: plan-warmed output differs from solo:\nsolo:\n%s\nwarmed:\n%s", claimer, solo.Format(), warmed.Format())
		}
		if n := e.Stats().Recordings - rec0; n != 0 {
			t.Errorf("claimer %T: Figure9 recorded %d traces after the plan, want 0", claimer, n)
		}
	}
}
