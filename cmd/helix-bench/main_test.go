package main

import (
	"strings"
	"testing"

	"helixrc/internal/drive"
)

// TestOnlySelectsOneKnownExperiment pins -only: a name outside the
// canonical list is an error (the run would otherwise print nothing and
// exit 0), and a known name selects exactly that experiment.
func TestOnlySelectsOneKnownExperiment(t *testing.T) {
	o := &drive.Options{Cores: 16}
	if _, err := plan(o, "fig13"); err == nil || !strings.Contains(err.Error(), "-only") {
		t.Errorf(`plan(-only fig13) error = %v, want one naming -only`, err)
	}
	p, err := plan(o, "fig9")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Experiments) != 1 || p.Experiments[0].Name != "fig9" {
		t.Errorf("-only fig9 selects %d experiments (%v), want exactly fig9", len(p.Experiments), p.Experiments)
	}
	if p, err := plan(o, ""); err != nil {
		t.Fatal(err)
	} else if len(p.Experiments) != 15 {
		t.Errorf("no -only selects %d experiments, want all 15", len(p.Experiments))
	}
}
