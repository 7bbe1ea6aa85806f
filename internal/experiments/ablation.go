package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/workload"
)

// BatchPolicyConfig parameterizes ablation A1 (§4.4): the Figure-3
// workload on Symphony under the three batching policies — immediate
// dispatch, a fixed window, and the Poisson-adaptive window.
type BatchPolicyConfig struct {
	Rate     float64
	Pareto   float64
	Duration time.Duration
	Fixed    time.Duration // the FixedWindow setting
}

// DefaultBatchPolicy returns the A1 configuration.
func DefaultBatchPolicy() BatchPolicyConfig {
	return BatchPolicyConfig{Rate: 8, Pareto: 0.6, Duration: 20 * time.Second, Fixed: 15 * time.Millisecond}
}

// QuickBatchPolicy returns a reduced grid for -quick.
func QuickBatchPolicy() BatchPolicyConfig {
	c := DefaultBatchPolicy()
	c.Duration = 8 * time.Second
	return c
}

// BatchPolicyPoint is one policy's measurement.
type BatchPolicyPoint struct {
	Policy      string
	LatPerTok   time.Duration
	P99Latency  time.Duration
	AvgBatch    float64
	Utilization float64
	Throughput  float64
}

// RunBatchPolicy runs A1.
func RunBatchPolicy(cfg BatchPolicyConfig) []BatchPolicyPoint {
	policies := []sched.Policy{
		sched.Immediate{},
		sched.FixedWindow{D: cfg.Fixed},
		sched.DefaultPoisson(),
	}
	var out []BatchPolicyPoint
	for _, pol := range policies {
		f3 := DefaultFig3()
		f3.Rates = []float64{cfg.Rate}
		f3.ParetoIndices = []float64{cfg.Pareto}
		f3.Duration = cfg.Duration
		cell := newFig3Cell(f3, cfg.Rate, cfg.Pareto)
		k := core.New(cell.clk, core.Config{
			Models:    map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
			FS:        cell.fsConfig(model.A100Llama13B().KVBytesPerToken),
			Policy:    pol,
			Tokenizer: cell.tok,
		})
		runSymphonyTrace(cell, k)
		st := k.Stats().Sched
		pt := BatchPolicyPoint{
			Policy:      pol.Name(),
			LatPerTok:   time.Duration(cell.perTok.Mean()),
			P99Latency:  cell.lat.Quantile(0.99),
			AvgBatch:    st.AvgBatch,
			Utilization: st.Utilization,
		}
		if cell.lastAt > 0 {
			pt.Throughput = float64(cell.lat.Count()) / cell.lastAt.Seconds()
		}
		out = append(out, pt)
	}
	return out
}

// footprint estimates a request's peak KV demand in tokens: popular
// topics run on a copy-on-write fork of the pinned document (only the
// question, the answer, and COW slack are new); everything else prefills
// the document from scratch.
func (c *fig3Cell) footprint(req workload.RAGRequest) int {
	page := 16
	n := len(c.tok.Encode(req.Query)) + req.MaxGen + 4*page
	if req.Topic >= c.cfg.PinTop {
		n += len(c.tok.Encode(c.docs[req.Topic])) + page
	}
	return n
}

// runSymphonyTrace replays the cell's RAG trace against an already-built
// kernel (shared by the Fig3 driver and A1). The application's own
// admission gate (see admitGate) reserves each request's KV footprint
// before its program is submitted; the pinned documents and some builder
// headroom are carved out of the gate's capacity up front. Without this,
// unbounded in-flight programs can exhaust KV memory mid-decode and
// deadlock waiting on each other's pages.
func runSymphonyTrace(c *fig3Cell, k *core.Kernel) {
	gpuTokens := int(c.cfg.GPUBytes / model.A100Llama13B().KVBytesPerToken)
	pinned := 0
	for t := 0; t < c.cfg.PinTop && t < len(c.docs); t++ {
		pinned += len(c.tok.Encode(c.docs[t])) + 16
	}
	capacity := gpuTokens - pinned - 512
	if capacity < 4096 {
		capacity = 4096
	}
	gate := newAdmitGate(c.clk, capacity)
	drive(c.clk, func() {
		wg := c.clk.NewWaitGroup()
		var prev time.Duration
		for _, req := range c.trace {
			req := req
			c.clk.Sleep(req.Arrive - prev)
			prev = req.Arrive
			wg.Add(1)
			c.clk.Go("client", func() {
				defer wg.Done()
				if err := c.link.OneWay(2048 + len(req.Query)); err != nil {
					return
				}
				granted, err := gate.Acquire(c.footprint(req))
				if err != nil {
					c.failed.Inc()
					return
				}
				defer gate.Release(granted)
				p := k.Submit("rag", c.ragProgram(req))
				err = p.Wait()
				if err == nil {
					err = c.link.OneWay(len(p.Output()))
				}
				if err != nil {
					c.failed.Inc()
					return
				}
				c.record(req.Arrive, req.MaxGen)
			})
		}
		wg.Wait()
	})
}

// BatchPolicyTable renders A1.
func BatchPolicyTable(points []BatchPolicyPoint) metrics.Table {
	t := metrics.Table{
		Title:   "A1 (§4.4): batch scheduler policy ablation (Fig-3 workload, Symphony)",
		Headers: []string{"policy", "lat/token", "p99-req", "avg-batch", "gpu-busy", "req/s"},
	}
	for _, p := range points {
		t.AddRow(p.Policy, p.LatPerTok, p.P99Latency, p.AvgBatch,
			fmt.Sprintf("%.2f", p.Utilization), fmt.Sprintf("%.2f", p.Throughput))
	}
	return t
}

// OverheadConfig parameterizes ablation A2 (§6 "performance overhead"):
// plain text completion with zero reuse, where programmability buys
// nothing and Symphony should pay only a small constant over a
// prompt-serving system.
type OverheadConfig struct {
	Requests     int
	Rate         float64
	PromptTokens int
	GenTokens    int
}

// DefaultOverhead returns the A2 configuration.
func DefaultOverhead() OverheadConfig {
	return OverheadConfig{Requests: 40, Rate: 2, PromptTokens: 200, GenTokens: 32}
}

// QuickOverhead returns a reduced grid for -quick.
func QuickOverhead() OverheadConfig {
	c := DefaultOverhead()
	c.Requests = 20
	return c
}

// OverheadPoint is one system's measurement.
type OverheadPoint struct {
	System      string
	MeanLatency time.Duration
	Ratio       float64 // vs vLLM-sim
}

// RunOverhead runs A2: identical vanilla completions through Symphony and
// vLLM-sim (its cache is useless here: every prompt is distinct).
func RunOverhead(cfg OverheadConfig) []OverheadPoint {
	arrivals := func() []time.Duration {
		p := workload.NewPoisson(cfg.Rate)
		rng := newRand(42)
		var t time.Duration
		out := make([]time.Duration, cfg.Requests)
		for i := range out {
			t += p.NextGap(rng)
			out[i] = t
		}
		return out
	}()
	prompts := make([]string, cfg.Requests)
	for i := range prompts {
		prompts[i] = syntheticPrompt(cfg.PromptTokens/2, 5000+i)
	}

	run := func(sys string) OverheadPoint {
		clk := simclock.New()
		tok := token.NewTokenizer(token.NewVocab())
		lat := metrics.NewHistogram()
		if sys == SystemSymphony {
			k := core.New(clk, core.Config{
				Models:    map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
				Policy:    sched.DefaultPoisson(),
				Tokenizer: tok,
			})
			drive(clk, func() {
				wg := clk.NewWaitGroup()
				var prev time.Duration
				for i := range prompts {
					i := i
					clk.Sleep(arrivals[i] - prev)
					prev = arrivals[i]
					wg.Add(1)
					clk.Go("client", func() {
						defer wg.Done()
						start := clk.Now()
						prompt := prompts[i]
						p := k.Submit("plain", func(ctx *core.Ctx) error {
							f, err := ctx.KvAnon()
							if err != nil {
								return err
							}
							defer f.Remove()
							s := lip.NewSession(ctx, f)
							_, err = lip.Complete(s, prompt, cfg.GenTokens)
							return err
						})
						if p.Wait() == nil {
							lat.Add(clk.Now() - start)
						}
					})
				}
				wg.Wait()
			})
		} else {
			mdl := model.New(model.Llama13B())
			srv := baseline.NewVLLM(clk, baseline.Config{Model: mdl, Policy: sched.DefaultPoisson()})
			drive(clk, func() {
				wg := clk.NewWaitGroup()
				var prev time.Duration
				for i := range prompts {
					i := i
					clk.Sleep(arrivals[i] - prev)
					prev = arrivals[i]
					wg.Add(1)
					clk.Go("client", func() {
						defer wg.Done()
						start := clk.Now()
						if _, err := srv.Complete(baseline.Request{Prompt: tok.Encode(prompts[i]), MaxTokens: cfg.GenTokens}); err == nil {
							lat.Add(clk.Now() - start)
						}
					})
				}
				wg.Wait()
			})
		}
		return OverheadPoint{System: sys, MeanLatency: lat.Mean()}
	}
	vllm := run(SystemVLLM)
	sym := run(SystemSymphony)
	if vllm.MeanLatency > 0 {
		sym.Ratio = float64(sym.MeanLatency) / float64(vllm.MeanLatency)
		vllm.Ratio = 1
	}
	return []OverheadPoint{sym, vllm}
}

// OverheadTable renders A2.
func OverheadTable(points []OverheadPoint) metrics.Table {
	t := metrics.Table{
		Title:   "A2 (§6): Symphony overhead on vanilla completion (no reuse)",
		Headers: []string{"system", "mean-latency", "ratio-vs-vllm"},
	}
	for _, p := range points {
		t.AddRow(p.System, p.MeanLatency, p.Ratio)
	}
	return t
}
