package knn

import (
	"testing"

	"hyperdom/internal/obs"
)

// TestQuantModeGauge pins the live hyperdom_quant_mode family (ISSUE 9):
// one-hot across the modes, updated on every SetQuantMode flip — unlike the
// build_info label, which is stamped once at boot.
func TestQuantModeGauge(t *testing.T) {
	orig := QuantModeNow()
	defer SetQuantMode(orig)

	check := func(active QuantMode) {
		t.Helper()
		for _, m := range []QuantMode{QuantNone, QuantF32} {
			v, ok := obs.GaugeValue("quant_mode", `mode="`+m.String()+`"`)
			if !ok {
				t.Fatalf("quant_mode{mode=%q} not registered", m)
			}
			want := 0.0
			if m == active {
				want = 1.0
			}
			if v != want {
				t.Errorf("quant_mode{mode=%q} = %v, want %v (active %v)", m, v, want, active)
			}
		}
	}

	SetQuantMode(QuantNone)
	check(QuantNone)
	if got := QuantModeNow(); got != QuantNone {
		t.Fatalf("QuantModeNow = %v, want none", got)
	}
	SetQuantMode(QuantF32)
	check(QuantF32)
}
