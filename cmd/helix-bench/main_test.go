package main

import (
	"strings"
	"testing"

	"helixrc/internal/drive"
	"helixrc/internal/harness"
)

// TestOnlySelectsOneKnownExperiment pins -only: a name outside the
// canonical list is an error (the run would otherwise print nothing and
// exit 0), and a known name selects exactly that experiment.
func TestOnlySelectsOneKnownExperiment(t *testing.T) {
	if err := checkOnly("fig13"); err == nil || !strings.Contains(err.Error(), "-only") {
		t.Errorf(`checkOnly(fig13) = %v, want an error naming -only`, err)
	}
	for _, only := range []string{"", "fig9"} {
		if err := checkOnly(only); err != nil {
			t.Errorf("checkOnly(%q) = %v, want nil", only, err)
		}
	}
	env, o := harness.New(harness.Options{}), &drive.Options{Cores: 16}
	if p := plan(env, o, "fig9"); len(p.Experiments) != 1 || p.Experiments[0].Name != "fig9" {
		t.Errorf("-only fig9 selects %d experiments (%v), want exactly fig9", len(p.Experiments), p.Experiments)
	}
	if p := plan(env, o, ""); len(p.Experiments) != 15 {
		t.Errorf("no -only selects %d experiments, want all 15", len(p.Experiments))
	}
}
