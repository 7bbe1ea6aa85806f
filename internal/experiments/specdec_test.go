package experiments

import (
	"bytes"
	"testing"
)

// TestSpecdecAcceptance runs the quick speculative-decoding sweep and
// enforces the acceptance bar: the spec cell must deliver at least 1.5x
// the unchunked fifo executor's aggregate token throughput (the quick
// sweep measures ~1.6x) without regressing interactive p99 queue delay
// beyond +10%, over byte-equal billed work.
func TestSpecdecAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("specdec sweep in -short mode")
	}
	cfg := QuickSpecdec()
	pts := RunSpecdec(cfg)
	if len(pts) != 3 || pts[0].Policy != "fifo" || pts[1].Policy != "lanes" || pts[2].Policy != "lanes+spec" {
		t.Fatalf("unexpected sweep shape: %+v", pts)
	}
	fifo, lanes, spec := pts[0], pts[1], pts[2]
	wantClients := cfg.InteractiveClients + cfg.BatchClients
	for _, p := range pts {
		if p.Completed != wantClients || p.Errors != 0 {
			t.Fatalf("%s: %d/%d clients completed, %d errors", p.Policy, p.Completed, wantClients, p.Errors)
		}
		// Billing is identical across cells: speculation changes the
		// step-loop physics, never what a request is charged.
		if p.PredTokens != fifo.PredTokens {
			t.Fatalf("cells billed unequal work: fifo %d tokens, %s %d", fifo.PredTokens, p.Policy, p.PredTokens)
		}
	}
	// The headline: executor-level speculation vs the unchunked executor.
	if spec.ThroughputSpeedup < 1.5 {
		t.Fatalf("spec throughput %.0f tok/s is %.2fx fifo's %.0f: below the 1.5x bar",
			spec.Throughput, spec.ThroughputSpeedup, fifo.Throughput)
	}
	// Throughput must come from speculation, not from the lanes policy or
	// prefill chunking riding along: the no-spec lanes cell stays flat.
	if ratio := lanes.Throughput / fifo.Throughput; ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("lanes cell throughput not flat: %.0f vs fifo %.0f tok/s (%.1f%%)",
			lanes.Throughput, fifo.Throughput, 100*(ratio-1))
	}
	// Interactive p99 flat or better (±10%) against the unchunked executor.
	if spec.InteractiveP99*10 > fifo.InteractiveP99*11 {
		t.Fatalf("spec interactive p99 %v regressed beyond +10%% of fifo's %v",
			spec.InteractiveP99, fifo.InteractiveP99)
	}
	// The speculation ledger must be live and sane.
	if spec.SpecRounds == 0 || spec.SpecDrafted == 0 {
		t.Fatal("spec cell ran no speculative rounds")
	}
	if spec.SpecAccepted > spec.SpecDrafted {
		t.Fatalf("accepted %d > drafted %d", spec.SpecAccepted, spec.SpecDrafted)
	}
	if spec.AcceptRate <= 0.3 || spec.AcceptRate >= 1 {
		t.Fatalf("acceptance rate %.2f outside (0.3, 1): the 0.85-aligned draft should land near 0.65", spec.AcceptRate)
	}
	if fifo.SpecRounds != 0 || lanes.SpecRounds != 0 {
		t.Fatalf("non-spec cells recorded speculative rounds: fifo %d, lanes %d", fifo.SpecRounds, lanes.SpecRounds)
	}
}

// TestSpecdecSeededRunsByteIdentical is the bit-reproducibility bar for
// the speculative executor: twenty identically-seeded sweeps must
// marshal to byte-identical BENCH JSON — adaptive windows, draft-cost
// accounting, and acceptance bitmaps included.
func TestSpecdecSeededRunsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("20-run determinism sweep in -short mode")
	}
	cfg := QuickSpecdec()
	cfg.InteractiveClients = 4
	cfg.InteractiveRequests = 3
	cfg.BatchClients = 3
	cfg.BatchDecode = 128
	cfg.Seed = 42
	marshal := func() []byte {
		data, err := marshalBench("specdec", cfg, RunSpecdec(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := marshal()
	for run := 1; run < 20; run++ {
		if next := marshal(); !bytes.Equal(first, next) {
			t.Fatalf("run %d differs from run 0:\n--- run 0 ---\n%s\n--- run %d ---\n%s", run, first, run, next)
		}
	}
}
