package core

import (
	"math"
	"testing"
)

func TestNewMethodAllNames(t *testing.T) {
	for _, name := range MethodNames {
		p, err := NewMethod(name, DefaultThresholds[name])
		if err != nil {
			t.Errorf("NewMethod(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("NewMethod(%q).Name() = %q", name, p.Name())
		}
		// A non-finite or negative threshold is rejected by every method,
		// iter_avg (which ignores its threshold) included.
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, -1} {
			if _, err := NewMethod(name, bad); err == nil {
				t.Errorf("NewMethod(%q, %v) accepted a threshold that is not finite and >= 0", name, bad)
			}
		}
	}
}

func TestNewMethodUnknown(t *testing.T) {
	if _, err := NewMethod("nope", 1); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestDefaultMethodsComplete(t *testing.T) {
	for _, name := range MethodNames {
		m, err := DefaultMethod(name)
		if err != nil {
			t.Fatalf("DefaultMethod(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("DefaultMethod(%q).Name() = %q", name, m.Name())
		}
	}
}

func TestDefaultThresholdsMatchPaper(t *testing.T) {
	// §5.2: 0.8 relDiff, 1000 absDiff, 0.4 Manhattan, 0.2 Euclidean and
	// Chebyshev, 10 iterations iter_k, 0.2 for the wavelets.
	want := map[string]float64{
		"relDiff": 0.8, "absDiff": 1000, "manhattan": 0.4,
		"euclidean": 0.2, "chebyshev": 0.2, "iter_k": 10,
		"avgWave": 0.2, "haarWave": 0.2,
	}
	for name, wantT := range want {
		if got := DefaultThresholds[name]; got != wantT {
			t.Errorf("default threshold %s = %v, want %v", name, got, wantT)
		}
	}
}

func TestThresholdSweeps(t *testing.T) {
	// §5.1's grids.
	if got := ThresholdSweep("relDiff"); len(got) != 6 || got[0] != 0.1 || got[5] != 1.0 {
		t.Errorf("relDiff sweep = %v", got)
	}
	if got := ThresholdSweep("absDiff"); len(got) != 6 || got[0] != 10 || got[5] != 1e6 {
		t.Errorf("absDiff sweep = %v", got)
	}
	if got := ThresholdSweep("iter_k"); len(got) != 6 || got[0] != 1 || got[5] != 1000 {
		t.Errorf("iter_k sweep = %v", got)
	}
	if got := ThresholdSweep("iter_avg"); got != nil {
		t.Errorf("iter_avg sweep = %v, want nil", got)
	}
	if got := ThresholdSweep("unknown"); got != nil {
		t.Errorf("unknown sweep = %v, want nil", got)
	}
}

func TestDefaultMethodUnknown(t *testing.T) {
	if _, err := DefaultMethod("nope"); err == nil {
		t.Error("unknown method must fail")
	}
}
