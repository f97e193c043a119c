package cliutil

import (
	"strings"
	"testing"

	"helixrc/internal/harness"
)

func TestCheckLevel(t *testing.T) {
	for _, ok := range []int{1, 2, 3} {
		if err := CheckLevel(ok); err != nil {
			t.Errorf("CheckLevel(%d) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []int{0, 4, -1} {
		err := CheckLevel(bad)
		if err == nil || !strings.Contains(err.Error(), "1..3") {
			t.Errorf("CheckLevel(%d) = %v, want range error", bad, err)
		}
	}
}

func TestCheckCores(t *testing.T) {
	for _, ok := range []int{1, 16, 1024} {
		if err := CheckCores(ok); err != nil {
			t.Errorf("CheckCores(%d) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []int{0, -3, 1025} {
		err := CheckCores(bad)
		if err == nil || !strings.Contains(err.Error(), "1..1024") {
			t.Errorf("CheckCores(%d) = %v, want range error", bad, err)
		}
	}
}

func TestCheckNonNegative(t *testing.T) {
	if err := CheckNonNegative("link", 0, "cycles"); err != nil {
		t.Errorf("CheckNonNegative(0) = %v, want nil", err)
	}
	err := CheckNonNegative("link", -1, "cycles")
	if err == nil || !strings.Contains(err.Error(), "-link -1") || !strings.Contains(err.Error(), "cycles") {
		t.Errorf("CheckNonNegative(-1) = %v, want error naming flag and note", err)
	}
}

func TestCheckNodeBytes(t *testing.T) {
	for _, c := range []struct{ bytes, cores int }{{0, 16}, {32 << 10, 16}, {1 << 20, 16}, {MaxRingArrayBytes, 1}} {
		if err := CheckNodeBytes("nodebytes", c.bytes, c.cores); err != nil {
			t.Errorf("CheckNodeBytes(%d, %d cores) = %v, want nil", c.bytes, c.cores, err)
		}
	}
	for _, c := range []struct{ bytes, cores int }{{-1, 16}, {1<<20 + 1, 16}, {1 << 31, 1}, {1<<63 - 1, 1024}} {
		err := CheckNodeBytes("nodebytes", c.bytes, c.cores)
		if err == nil || !strings.Contains(err.Error(), "accepted range is 0..") {
			t.Errorf("CheckNodeBytes(%d, %d cores) = %v, want an error naming the accepted range", c.bytes, c.cores, err)
		}
	}
}

func TestCheckFraction(t *testing.T) {
	for _, ok := range []float64{0.001, 0.9, 1} {
		if err := CheckFraction("hotfrac", ok); err != nil {
			t.Errorf("CheckFraction(%v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []float64{0, -0.1, 1.01} {
		err := CheckFraction("hotfrac", bad)
		if err == nil || !strings.Contains(err.Error(), "(0..1]") {
			t.Errorf("CheckFraction(%v) = %v, want range error", bad, err)
		}
	}
}

func TestCheckOneOf(t *testing.T) {
	if err := CheckOneOf("mix", "hotkey", "hotkey", "uniform"); err != nil {
		t.Errorf("CheckOneOf(hotkey) = %v, want nil", err)
	}
	err := CheckOneOf("mix", "zipf", "hotkey", "uniform")
	if err == nil || !strings.Contains(err.Error(), "hotkey, uniform") {
		t.Errorf("CheckOneOf(zipf) = %v, want error listing accepted values", err)
	}
}

func TestSetupCacheClearWithoutDir(t *testing.T) {
	if _, err := SetupCache(harness.Options{}, true); err == nil {
		t.Fatal("SetupCache without a dir, clear = nil error, want error")
	}
	if env, err := SetupCache(harness.Options{}, false); err != nil || env == nil {
		t.Fatalf("SetupCache without a dir = %v, %v; want an Env", env, err)
	}
}
