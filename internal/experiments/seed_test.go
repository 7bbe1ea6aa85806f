package experiments

import "testing"

// TestSeedBaseBaseline pins the compatibility contract: seed 0 and seed
// 1 select the recorded baseline streams (offset zero), so existing
// BENCH_*.json trajectories remain comparable.
func TestSeedBaseBaseline(t *testing.T) {
	if got := seedBase(0); got != 0 {
		t.Errorf("seedBase(0) = %d, want 0", got)
	}
	if got := seedBase(1); got != 0 {
		t.Errorf("seedBase(1) = %d, want 0", got)
	}
	if got := seedBase(2); got == 0 {
		t.Error("seedBase(2) = 0, want a nonzero stream offset")
	}
}
