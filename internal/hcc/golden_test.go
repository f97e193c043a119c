package hcc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"helixrc/internal/alias"
	"helixrc/internal/hcc"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
	"helixrc/internal/workloads"
)

// fingerprintDigest is the SHA-256 of the "name level cores tier
// fingerprint" lines TestFingerprintsPinned writes. Compiled.Fingerprint
// keys every trace in the disk and remote tiers, so a change to it
// strands (or, worse, misreads) every cached trace: the digest moves
// only together with the harness's cacheScheme.
const fingerprintDigest = "107f6f2744d1065d83e8c524f7b3449172f69ec391370438168a996abc7da6b4"

// TestFingerprintsPinned compiles every SPEC analogue and every default
// scenario at each level, at 2, 4, 8 and 16 cores, and at each alias
// tier (0, the level's own, then 1-5), and pins the fingerprints of all
// of them with one digest.
func TestFingerprintsPinned(t *testing.T) {
	registerScenarios(t)
	names := workloads.Names()
	for _, f := range irgen.Families() {
		pack, err := scenarios.DefaultPack(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pack.Scenarios {
			names = append(names, m.Name)
		}
	}
	h := sha256.New()
	for _, name := range names {
		w := get(t, name)
		for _, cores := range []int{2, 4, 8, 16} {
			prof, err := hcc.Train(w.Prog, w.Entry, hcc.Options{Cores: cores, TrainArgs: w.TrainArgs})
			if err != nil {
				t.Fatalf("%s/c%d: %v", name, cores, err)
			}
			for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
				for tier := 0; tier <= len(alias.Tiers); tier++ {
					c, err := hcc.CompileWith(w.Prog, w.Entry, hcc.Options{
						Level: level, Cores: cores, TrainArgs: w.TrainArgs, AliasTier: tier,
					}, prof)
					if err != nil {
						t.Fatalf("%s/%v/c%d/t%d: %v", name, level, cores, tier, err)
					}
					line := fmt.Sprintf("%s %d %d %d %s\n", name, level, cores, tier, c.Fingerprint())
					t.Log(line)
					h.Write([]byte(line))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fingerprintDigest {
		t.Errorf("compile fingerprints digest to %s, want %s (each line is logged above)", got, fingerprintDigest)
	}
}
