package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"helixrc/internal/benchreport"
)

// TestReplayedFiguresMatchReference pins the record/replay path at the
// harness level: Figures 10 and 11c, generated from cold caches through
// recording, batched retiming and replay, hash-match the checked-in
// reference report.
func TestReplayedFiguresMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure generation")
	}
	want, err := benchreport.ExpectedHashes("../../BENCH_2026-08-07.json")
	if err != nil {
		t.Fatal(err)
	}
	env := New(Options{})
	for _, name := range []string{"fig10", "fig11c"} {
		e, ok := env.FindExperiment(name, 16)
		if !ok {
			t.Fatalf("unknown experiment %s", name)
		}
		out, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want[name] {
			t.Errorf("%s output hash %s, want %s:\n%s", name, got, want[name], out)
		}
	}
	if st := env.Stats(); st.Recordings == 0 || st.Replays == 0 {
		t.Errorf("expected both recordings and replays, got %d/%d", st.Recordings, st.Replays)
	}
}
