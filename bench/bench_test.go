package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestQuick runs every workload at smoke size — fig9 alone, the 4-point
// explore grid checked against EXPLORE_2026-08-07.json, 20 served
// requests, a one-program walk — untraced and traced. Every output must
// verify, the walk's self-checks must hold, and every metric
// BENCHMARK.json names must be emitted with its unit.
func TestQuick(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, allWorkloads[i].name)
		}
	}

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	for trace, want := range map[int][]specMetric{0: spec.EndToEnd, 1: spec.PerLayer} {
		t.Run(fmt.Sprintf("trace=%d", trace), func(t *testing.T) {
			o := options{seed: 1, trace: trace, sets: 1, quick: true, root: ".."}
			if trace == 1 {
				o.traceFile = traceFile
			}
			res, err := run(context.Background(), o, allWorkloads, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, w := range allWorkloads {
				for _, m := range want {
					got, ok := res.Metrics[w.name+"."+m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s: metric %s missing or not in %s (got %+v)", w.name, m.Name, m.Unit, got)
					}
				}
			}
			if n := len(want) * len(allWorkloads); len(res.Metrics) != n {
				t.Errorf("emitted %d metrics, BENCHMARK.json names %d per workload (%d)", len(res.Metrics), len(want), n)
			}
			if trace == 1 {
				if v := res.Metrics["explore-sweep.walk.mismatches"].Value; v != 0 {
					t.Errorf("walk self-checks failed %v times", v)
				}
				if v := res.Metrics["eval-warm.harness.recordings"].Value; v != 0 {
					t.Errorf("eval-warm recorded %v traces on a filled cache", v)
				}
			}
		})
	}

	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	data, err = os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Fatalf("trace file holds no trace events (%v)", err)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), so a spread the benchmark prints equals
// one computed in Python from its result lines.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
