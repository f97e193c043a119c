package cliutil

import (
	"strings"
	"testing"
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
	if err := SetupCache("", true, ""); err == nil {
		t.Fatal("SetupCache(\"\", clear, \"\") = nil, want error")
	}
	if err := SetupCache("", false, ""); err != nil {
		t.Fatalf("SetupCache(\"\", false, \"\") = %v, want nil", err)
	}
}
