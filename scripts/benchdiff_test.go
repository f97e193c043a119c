package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helixrc/internal/benchreport"
)

// writeReport appends r to a fresh report file in dir and returns its
// path.
func writeReport(t *testing.T, dir, name string, r benchreport.Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := benchreport.Append(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func exploreFamily(family string) benchreport.ExploreFamily {
	cells := []benchreport.ExploreConfig{{Cores: 2, Tier: 1, Link: 1, Speedup: 1.5, Cost: benchreport.ExploreCost(2, 1, 0)}}
	return benchreport.ExploreFamily{
		Family:    family,
		Scenarios: []string{family + "/0"},
		Cells:     cells,
		Frontier:  benchreport.ComputeFrontier(cells),
	}
}

// explorePart is one -shard worker's partial helix-explore report,
// holding the given families.
func explorePart(shard string, families ...string) benchreport.Report {
	r := benchreport.Report{Shard: shard, Parallel: 1, TotalMillis: 100, Replay: &benchreport.Replay{}}
	r.Explore = &benchreport.Explore{}
	for _, f := range families {
		fam := exploreFamily(f)
		out := fam.Format()
		r.Experiments = append(r.Experiments, benchreport.Experiment{Name: "explore:" + f, OutputSHA256: "sha-" + f, Output: out, WallMillis: 1})
		r.Explore.Families = append(r.Explore.Families, fam)
	}
	return r
}

// TestMergeExploreParts merges the partial reports of a two-worker
// sweep: the families land in canonical order (by family name, whatever
// order the workers wrote them in) with both Explore sections, and a
// name that is neither a paper experiment nor an explore sweep is
// still rejected.
func TestMergeExploreParts(t *testing.T) {
	dir := t.TempDir()
	p1 := writeReport(t, dir, "p1.json", explorePart("1/2", "reduction"))
	p2 := writeReport(t, dir, "p2.json", explorePart("2/2", "pointer-chase", "contention"))
	out := filepath.Join(dir, "merged.json")
	if err := mergeParts(out, []string{p1, p2}); err != nil {
		t.Fatalf("merging explore partials: %v", err)
	}
	runs, err := benchreport.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	m := runs[len(runs)-1]
	var got []string
	for _, e := range m.Experiments {
		got = append(got, e.Name)
	}
	if want := "explore:contention explore:pointer-chase explore:reduction"; strings.Join(got, " ") != want {
		t.Errorf("merged experiments = %v, want %s", got, want)
	}
	if m.Workers != 2 || m.Explore == nil || len(m.Explore.Families) != 3 {
		t.Errorf("merged report: workers=%d explore=%+v; want 2 workers and 3 families", m.Workers, m.Explore)
	}

	bad := explorePart("2/2", "contention")
	bad.Experiments = append(bad.Experiments, benchreport.Experiment{Name: "fig99", OutputSHA256: "x"})
	p3 := writeReport(t, dir, "p3.json", bad)
	err = mergeParts(filepath.Join(dir, "bad.json"), []string{p1, p3})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Errorf("merging an unknown experiment: err = %v, want it rejected", err)
	}
}

// TestEnforceMaxWarm gates the plan phase: the wall a run spends
// outside its experiments is bounded by max_warm_ms, and a budgeted
// experiment missing from the report fails the gate.
func TestEnforceMaxWarm(t *testing.T) {
	dir := t.TempDir()
	report := writeReport(t, dir, "run.json", benchreport.Report{
		Parallel:    2,
		TotalMillis: 3000,
		Experiments: []benchreport.Experiment{
			{Name: "fig9", WallMillis: 40},
			{Name: "tlp", WallMillis: 400},
		},
	})
	budgets := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const families = `"families": [{"name": "f", "experiments": ["fig9", "tlp"], "wall_ms": 1000}]`

	// The plan phase is 3000 - 440 = 2560 ms.
	if err := enforceBudgets(budgets("roomy.json", `{"max_warm_ms": 2600, `+families+`}`), report); err != nil {
		t.Errorf("plan phase under max_warm_ms: %v", err)
	}
	err := enforceBudgets(budgets("tight.json", `{"max_warm_ms": 2500, `+families+`}`), report)
	if err == nil || !strings.Contains(err.Error(), "1 budget(s) exceeded") {
		t.Errorf("plan phase over max_warm_ms: err = %v, want one budget exceeded", err)
	}
	missing := `{"families": [{"name": "g", "experiments": ["fig1"], "wall_ms": 1000}]}`
	err = enforceBudgets(budgets("missing.json", missing), report)
	if err == nil || !strings.Contains(err.Error(), "experiment fig1 missing") {
		t.Errorf("budgeted experiment absent: err = %v, want it rejected", err)
	}
}
