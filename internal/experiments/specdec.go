package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// SpecdecConfig parameterizes the executor-level speculative-decoding
// sweep: a decode-heavy mixed population (interactive clients with short
// prefills and short decode runs; batch clients with a chunky prefill
// followed by a long decode run) served three ways over identical work:
//
//   - fifo: the unchunked run-to-completion executor — prefills are
//     monolithic steps, decode advances one token per iteration.
//   - lanes: iteration-level lanes plus Sarathi-style chunked prefill
//     (Config.PrefillChunk) — latency improves, but decode throughput is
//     still pinned at one token per sequence per iteration.
//   - lanes+spec: the same kernel with Config.Spec — each iteration
//     drafts a window on the cheap model and verifies it inside the
//     call's own step, so accepted run lengths multiply per-step decode
//     throughput.
//
// The figures of merit are aggregate token throughput (the spec cell's
// headline) and interactive p99 queue delay (which speculation must not
// regress).
type SpecdecConfig struct {
	// GPUs is the replica count of each cell's kernel.
	GPUs int
	// Interactive population, as in SLOConfig.
	InteractiveClients  int
	InteractiveRequests int
	InteractivePrefill  int
	InteractiveDecode   int
	Think               time.Duration
	// Batch population: decode-heavy — Decode is the long generation the
	// speculative executor accelerates.
	BatchClients  int
	BatchRequests int
	BatchPrefill  int
	BatchDecode   int
	// Lanes knobs for the non-fifo cells (see SLOConfig).
	Quantum    int
	StepTokens int
	AgeAfter   time.Duration
	// PrefillChunk is the kernel prefill chunk of the non-fifo cells.
	PrefillChunk int
	// Draft window bounds for the spec cell; zero values take the
	// sched.DefaultSpec* defaults.
	Window    int
	MinWindow int
	MaxWindow int
	// Seed offsets the deterministic workload streams (see seedBase).
	Seed int64
}

// DefaultSpecdec returns the sweep used by symphony-bench -exp specdec.
func DefaultSpecdec() SpecdecConfig {
	return SpecdecConfig{
		GPUs:                1,
		InteractiveClients:  8,
		InteractiveRequests: 10,
		InteractivePrefill:  24,
		InteractiveDecode:   8,
		Think:               40 * time.Millisecond,
		BatchClients:        6,
		BatchRequests:       3,
		BatchPrefill:        512,
		BatchDecode:         1024,
		Quantum:             96,
		StepTokens:          512,
		AgeAfter:            250 * time.Millisecond,
		PrefillChunk:        256,
		Seed:                1,
	}
}

// QuickSpecdec returns a reduced sweep for -quick and the test suite.
func QuickSpecdec() SpecdecConfig {
	cfg := DefaultSpecdec()
	cfg.InteractiveRequests = 6
	cfg.BatchRequests = 2
	cfg.BatchPrefill = 256
	cfg.BatchDecode = 512
	return cfg
}

// SpecdecPoint is one cell's measurement. Policy ("fifo", "lanes",
// "lanes+spec") is the point's benchgate identity.
type SpecdecPoint struct {
	Policy string
	GPUs   int
	// Completed counts client processes that finished every request;
	// Errors everything else.
	Completed int
	Errors    int
	Makespan  time.Duration
	// Throughput is virtual pred tokens per second over the makespan;
	// ThroughputSpeedup is this row's throughput over the fifo
	// baseline's (1 for the baseline itself).
	Throughput        float64
	ThroughputSpeedup float64
	PredTokens        int64
	// Interactive queue delay (as in SLOPoint): speculation must not buy
	// throughput by parking the latency-sensitive lane.
	InteractiveP50 time.Duration
	InteractiveP99 time.Duration
	// Speculation counters from the scheduler ledger: rounds run, tokens
	// drafted, tokens accepted, and the resulting acceptance rate.
	SpecRounds   int64
	SpecDrafted  int64
	SpecAccepted int64
	AcceptRate   float64
	Preemptions  int64
	AvgBatch     float64
}

// RunSpecdec sweeps the three executor configurations over the
// decode-heavy workload.
func RunSpecdec(cfg SpecdecConfig) []SpecdecPoint {
	pts := []SpecdecPoint{
		runSpecdecCell(cfg, "fifo", false),
		runSpecdecCell(cfg, "lanes", false),
		runSpecdecCell(cfg, "lanes+spec", true),
	}
	base := pts[0].Throughput
	for i := range pts {
		pts[i].ThroughputSpeedup = 1
		if base > 0 {
			pts[i].ThroughputSpeedup = pts[i].Throughput / base
		}
	}
	return pts
}

// specdecDecode appends n synthetic tokens to f as one decode run: a
// single PredDecode call the executor advances one token — or one
// verified draft window — per iteration.
func specdecDecode(ctx *core.Ctx, f *kvfs.File, n, seed int) error {
	if n <= 0 {
		return nil
	}
	toks := make([]token.ID, n)
	pos := make([]int, n)
	base := f.Len()
	for i := range toks {
		toks[i] = token.ID(seed + i)
		pos[i] = base + i
	}
	_, err := ctx.PredDecode(f, toks, pos)
	return err
}

// specdecRequest runs one request on a fresh file: a prefill pred
// followed by a decode run.
func specdecRequest(ctx *core.Ctx, prefill, decode, seed int) error {
	f, err := ctx.KvAnon()
	if err != nil {
		return err
	}
	defer f.Remove()
	if err := synthPred(ctx, f, prefill, seed); err != nil {
		return err
	}
	return specdecDecode(ctx, f, decode, seed+prefill)
}

// runSpecdecCell measures one executor configuration.
func runSpecdecCell(cfg SpecdecConfig, cell string, spec bool) SpecdecPoint {
	policy := "lanes"
	chunk := cfg.PrefillChunk
	if cell == "fifo" {
		policy, chunk = "fifo", 0
	}
	prioPolicy, err := sched.NewPriorityPolicy(policy)
	if err != nil {
		panic(err)
	}
	if lanes, ok := prioPolicy.(*sched.Lanes); ok {
		lanes.SliceTokens = cfg.Quantum
		lanes.MaxStepTokens = cfg.StepTokens
		lanes.AgeAfter = cfg.AgeAfter
	}
	var specCfg *core.SpecConfig
	if spec {
		specCfg = &core.SpecConfig{
			Draft:     "draft",
			Window:    cfg.Window,
			MinWindow: cfg.MinWindow,
			MaxWindow: cfg.MaxWindow,
		}
	}
	clk := simclock.New()
	target := model.New(model.Llama13B())
	k := core.New(clk, core.Config{
		Models: map[string]*model.Model{
			"llama-13b": target,
			"draft":     model.New(model.AlignedDraft(target, 0.85)),
		},
		DefaultModel: "llama-13b",
		// KV capacity is not the variable under study: size the pool so
		// the whole population fits.
		FS:             fig3FS(64<<30, model.A100Llama13B().KVBytesPerToken),
		Policy:         sched.DefaultPoisson(),
		PriorityPolicy: prioPolicy,
		PrefillChunk:   chunk,
		Spec:           specCfg,
		Replicas:       cfg.GPUs,
		Dispatcher:     sched.LeastLoaded{},
	})

	var (
		mu        sync.Mutex
		completed int
		errors    int
		lastDone  time.Duration
	)
	join := func(wg *simclock.WaitGroup, p *core.Process) {
		clk.Go("join", func() {
			defer wg.Done()
			err := p.Wait()
			now := clk.Now()
			mu.Lock()
			defer mu.Unlock()
			if now > lastDone {
				lastDone = now
			}
			if err == nil {
				completed++
			} else {
				errors++
			}
		})
	}
	drive(clk, func() {
		wg := clk.NewWaitGroup()
		for c := 0; c < cfg.InteractiveClients; c++ {
			c := c
			wg.Add(1)
			p := k.SubmitWith("interactive", func(ctx *core.Ctx) error {
				if err := ctx.Sleep(time.Duration(c) * cfg.Think / time.Duration(cfg.InteractiveClients)); err != nil {
					return err
				}
				for r := 0; r < cfg.InteractiveRequests; r++ {
					if err := specdecRequest(ctx, cfg.InteractivePrefill, cfg.InteractiveDecode, seedBase(cfg.Seed)+c*100000+r*1000); err != nil {
						return err
					}
					if err := ctx.Sleep(cfg.Think); err != nil {
						return err
					}
				}
				return nil
			}, core.SubmitOptions{Priority: sched.Interactive})
			join(wg, p)
		}
		for c := 0; c < cfg.BatchClients; c++ {
			c := c
			wg.Add(1)
			p := k.SubmitWith("batch", func(ctx *core.Ctx) error {
				if err := ctx.Sleep(time.Duration(c) * 5 * time.Millisecond); err != nil {
					return err
				}
				for r := 0; r < cfg.BatchRequests; r++ {
					if err := specdecRequest(ctx, cfg.BatchPrefill, cfg.BatchDecode, seedBase(cfg.Seed)+5000000+c*200000+r*2000); err != nil {
						return err
					}
				}
				return nil
			}, core.SubmitOptions{Priority: sched.Batch})
			join(wg, p)
		}
		wg.Wait()
	})

	st := k.Stats()
	pt := SpecdecPoint{
		Policy:       cell,
		GPUs:         cfg.GPUs,
		Completed:    completed,
		Errors:       errors,
		Makespan:     lastDone,
		PredTokens:   st.PredTokens,
		SpecRounds:   st.Sched.SpecRounds,
		SpecDrafted:  st.Sched.SpecDrafted,
		SpecAccepted: st.Sched.SpecAccepted,
		Preemptions:  st.Sched.Preemptions,
		AvgBatch:     st.Sched.AvgBatch,
	}
	for _, l := range st.Sched.Lanes {
		if l.Lane == "interactive" {
			pt.InteractiveP50 = l.DelayP50
			pt.InteractiveP99 = l.DelayP99
		}
	}
	if pt.SpecDrafted > 0 {
		pt.AcceptRate = float64(pt.SpecAccepted) / float64(pt.SpecDrafted)
	}
	if lastDone > 0 {
		pt.Throughput = float64(st.PredTokens) / lastDone.Seconds()
	}
	return pt
}

// SpecdecTable renders the sweep.
func SpecdecTable(points []SpecdecPoint) metrics.Table {
	t := metrics.Table{
		Title: "specdec: executor-level speculative decoding over a decode-heavy mixed load",
		Headers: []string{"cell", "done", "tok/s", "speedup", "inter-p50", "inter-p99",
			"rounds", "drafted", "accepted", "acc-rate", "preempt", "avg-batch"},
	}
	for _, p := range points {
		t.AddRow(p.Policy, fmt.Sprintf("%d/%d", p.Completed, p.Completed+p.Errors),
			fmt.Sprintf("%.0f", p.Throughput), fmt.Sprintf("%.2fx", p.ThroughputSpeedup),
			p.InteractiveP50.Round(time.Microsecond), p.InteractiveP99.Round(time.Microsecond),
			p.SpecRounds, p.SpecDrafted, p.SpecAccepted, fmt.Sprintf("%.2f", p.AcceptRate),
			p.Preemptions, fmt.Sprintf("%.1f", p.AvgBatch))
	}
	return t
}
