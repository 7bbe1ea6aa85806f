package experiments

import (
	"testing"
	"time"
)

func TestToolCallsScalesWithRoundTrips(t *testing.T) {
	cfg := QuickToolCalls() // k = 1, 4
	pts := RunToolCalls(cfg)
	get := func(sys string, k int) ToolCallsPoint {
		for _, p := range pts {
			if p.System == sys && p.Calls == k {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", sys, k)
		return ToolCallsPoint{}
	}
	for _, k := range cfg.Calls {
		sym, tgi := get(SystemSymphony, k), get(SystemTGI, k)
		if sym.E2E >= tgi.E2E {
			t.Errorf("k=%d: symphony (%v) not faster than tgi (%v)", k, sym.E2E, tgi.E2E)
		}
		if sym.PrefillToks >= tgi.PrefillToks {
			t.Errorf("k=%d: symphony prefilled %d >= tgi %d", k, sym.PrefillToks, tgi.PrefillToks)
		}
	}
	// The gap must grow with the number of calls: each extra call costs the
	// baseline a round trip plus conversation re-shipping.
	gap1 := get(SystemTGI, 1).E2E - get(SystemSymphony, 1).E2E
	gap4 := get(SystemTGI, 4).E2E - get(SystemSymphony, 4).E2E
	if gap4 <= gap1 {
		t.Errorf("gap did not grow with calls: %v -> %v", gap1, gap4)
	}
	tab := ToolCallsTable(pts)
	t.Logf("\n%s", tab.String())
}

func TestConstrainedLIPAlwaysSucceeds(t *testing.T) {
	cfg := DefaultConstrained()
	cfg.Trials = 5
	cfg.Retries = 8
	pts := RunConstrained(cfg)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	sym, retry := pts[0], pts[1]
	if sym.Successes != sym.Trials {
		t.Errorf("constrained LIP succeeded %d/%d", sym.Successes, sym.Trials)
	}
	if retry.Successes > sym.Successes {
		t.Errorf("retry client out-succeeded the grammar LIP")
	}
	if retry.AvgToks <= sym.AvgToks {
		t.Errorf("retry client spent fewer tokens (%v) than the LIP (%v)", retry.AvgToks, sym.AvgToks)
	}
	tab := ConstrainedTable(pts)
	t.Logf("\n%s", tab.String())
}

func TestSpeculativeSpeedsUpDecoding(t *testing.T) {
	cfg := DefaultSpeculative()
	cfg.Ks = []int{0, 4}
	cfg.GenTokens = 64
	pts := RunSpeculative(cfg)
	if pts[0].K != 0 || pts[1].K != 4 {
		t.Fatalf("order: %+v", pts)
	}
	if pts[1].Speedup <= 1.2 {
		t.Errorf("K=4 speedup = %.2f, want > 1.2", pts[1].Speedup)
	}
	if pts[1].Acceptance < 0.3 {
		t.Errorf("acceptance = %.2f", pts[1].Acceptance)
	}
	if pts[1].TargetSteps >= pts[0].TargetSteps {
		t.Errorf("speculation did not reduce target steps: %d vs %d", pts[1].TargetSteps, pts[0].TargetSteps)
	}
	tab := SpeculativeTable(pts)
	t.Logf("\n%s", tab.String())
}

func TestMultiRoundRetentionBeatsEviction(t *testing.T) {
	cfg := DefaultMultiRound()
	cfg.Rounds = 5
	pts := RunMultiRound(cfg)
	byName := map[string]MultiRoundPoint{}
	for _, p := range pts {
		byName[p.System] = p
	}
	sym, tgi := byName[SystemSymphony], byName[SystemTGI]
	if sym.MeanRound >= tgi.MeanRound {
		t.Errorf("symphony round (%v) not faster than tgi (%v)", sym.MeanRound, tgi.MeanRound)
	}
	// Symphony prefills each turn exactly once; TGI re-prefills the whole
	// growing conversation every round.
	if sym.PrefillToks*2 >= tgi.PrefillToks {
		t.Errorf("prefill tokens: symphony %d, tgi %d — retention not visible", sym.PrefillToks, tgi.PrefillToks)
	}
	tab := MultiRoundTable(pts)
	t.Logf("\n%s", tab.String())
}

func TestTreeForkBeatsResend(t *testing.T) {
	cfg := QuickTree() // branch 2, depth 3: 14 nodes
	pts := RunTree(cfg)
	byName := map[string]TreePoint{}
	for _, p := range pts {
		byName[p.System] = p
		if p.Nodes != 14 {
			t.Errorf("%s nodes = %d", p.System, p.Nodes)
		}
	}
	sym, tgi := byName[SystemSymphony], byName[SystemTGI]
	if sym.GPUTokens >= tgi.GPUTokens {
		t.Errorf("fork-based tree pushed %d tokens >= baseline %d", sym.GPUTokens, tgi.GPUTokens)
	}
	if sym.E2E >= tgi.E2E {
		t.Errorf("symphony tree (%v) not faster than tgi (%v)", sym.E2E, tgi.E2E)
	}
	tab := TreeTable(pts)
	t.Logf("\n%s", tab.String())
}

func TestEditorIncrementalBeatsRecompute(t *testing.T) {
	cfg := DefaultEditor()
	cfg.Keystrokes = 40
	cfg.BufferTokens = 1000
	pts := RunEditor(cfg)
	byName := map[string]EditorPoint{}
	for _, p := range pts {
		byName[p.System] = p
	}
	sym, vllm, tgi := byName[SystemSymphony], byName[SystemVLLM], byName[SystemTGI]
	if sym.MeanLatency >= tgi.MeanLatency {
		t.Errorf("symphony keystroke (%v) not faster than tgi (%v)", sym.MeanLatency, tgi.MeanLatency)
	}
	if vllm.MeanLatency >= tgi.MeanLatency {
		t.Errorf("vllm cache gave nothing over tgi: %v vs %v", vllm.MeanLatency, tgi.MeanLatency)
	}
	if sym.GPUTokens >= tgi.GPUTokens/2 {
		t.Errorf("incremental editor pushed %d tokens vs tgi %d", sym.GPUTokens, tgi.GPUTokens)
	}
	tab := EditorTable(pts)
	t.Logf("\n%s", tab.String())
}

func TestBatchPolicyAblation(t *testing.T) {
	cfg := DefaultBatchPolicy()
	cfg.Duration = 8 * time.Second
	pts := RunBatchPolicy(cfg)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.LatPerTok <= 0 || p.Throughput <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	// The fixed window must gather bigger batches than immediate dispatch.
	if pts[1].AvgBatch <= pts[0].AvgBatch {
		t.Errorf("fixed window avg batch %.2f <= immediate %.2f", pts[1].AvgBatch, pts[0].AvgBatch)
	}
	tab := BatchPolicyTable(pts)
	t.Logf("\n%s", tab.String())
}

func TestOverheadModest(t *testing.T) {
	cfg := DefaultOverhead()
	cfg.Requests = 20
	pts := RunOverhead(cfg)
	var sym OverheadPoint
	for _, p := range pts {
		if p.System == SystemSymphony {
			sym = p
		}
	}
	if sym.Ratio <= 0 {
		t.Fatalf("no ratio computed: %+v", pts)
	}
	// Programmability should cost little when it buys nothing (§6): within
	// 30% of the prompt server on a no-reuse workload.
	if sym.Ratio > 1.3 {
		t.Errorf("symphony overhead ratio = %.2f, want <= 1.3", sym.Ratio)
	}
	tab := OverheadTable(pts)
	t.Logf("\n%s", tab.String())
}
