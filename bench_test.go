// Package bench holds the repository-level benchmark harness: one
// testing.B benchmark per paper artifact (see docs/EXPERIMENTS.md),
// plus micro-benchmarks for the substrates.
//
// The experiment benchmarks execute complete simulated runs and report
// the paper's metrics through b.ReportMetric:
//
//	vlat-ns/tok   virtual mean end-to-end latency per generated token
//	vthru-req/s   virtual throughput
//	speedup-x     ratio versus the relevant baseline
//
// Wall-clock ns/op only measures the simulator. Run with:
//
//	go test -bench=. -benchmem ./...
package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/grammar"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/token"
)

// BenchmarkFig3Latency regenerates Figure 3 (left panel): normalized mean
// end-to-end latency per generated token across the load × skew grid.
func BenchmarkFig3Latency(b *testing.B) {
	for _, pareto := range []float64{0.3, 2.0} {
		for _, rate := range []float64{2, 8} {
			b.Run(fmt.Sprintf("pareto=%.1f/rate=%.0f", pareto, rate), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := experiments.QuickFig3()
					cfg.Rates = []float64{rate}
					cfg.ParetoIndices = []float64{pareto}
					pts := experiments.RunFig3(cfg)
					var sym, tgi experiments.Fig3Point
					for _, p := range pts {
						switch p.System {
						case experiments.SystemSymphony:
							sym = p
						case experiments.SystemTGI:
							tgi = p
						}
					}
					b.ReportMetric(float64(sym.LatPerTok), "vlat-ns/tok")
					if sym.LatPerTok > 0 {
						b.ReportMetric(float64(tgi.LatPerTok)/float64(sym.LatPerTok), "speedup-x")
					}
				}
			})
		}
	}
}

// BenchmarkFig3Throughput regenerates Figure 3 (right panel).
func BenchmarkFig3Throughput(b *testing.B) {
	for _, pareto := range []float64{0.3, 2.0} {
		b.Run(fmt.Sprintf("pareto=%.1f", pareto), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.QuickFig3()
				cfg.Rates = []float64{8}
				cfg.ParetoIndices = []float64{pareto}
				pts := experiments.RunFig3(cfg)
				for _, p := range pts {
					if p.System == experiments.SystemSymphony {
						b.ReportMetric(p.Throughput, "vthru-req/s")
					}
				}
			}
		})
	}
}

// BenchmarkFig2 measures the paper's Figure 2 pattern: n parallel branches
// over one shared prefix, reported as virtual time per branch.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultTree()
		cfg.Branch, cfg.Depth = 4, 1 // one level of parallel suffixes
		pts := experiments.RunTree(cfg)
		for _, p := range pts {
			if p.System == experiments.SystemSymphony {
				b.ReportMetric(float64(p.E2E)/float64(p.Nodes), "vns/branch")
			}
		}
	}
}

// BenchmarkToolCalls regenerates E2 (§2.2).
func BenchmarkToolCalls(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("calls=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultToolCalls()
				cfg.Calls = []int{k}
				pts := experiments.RunToolCalls(cfg)
				var sym, tgi experiments.ToolCallsPoint
				for _, p := range pts {
					switch p.System {
					case experiments.SystemSymphony:
						sym = p
					case experiments.SystemTGI:
						tgi = p
					}
				}
				b.ReportMetric(float64(sym.E2E), "vns/agent")
				if sym.E2E > 0 {
					b.ReportMetric(float64(tgi.E2E)/float64(sym.E2E), "speedup-x")
				}
			}
		})
	}
}

// BenchmarkConstrained regenerates E3 (§2.3).
func BenchmarkConstrained(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultConstrained()
		cfg.Trials, cfg.Retries = 4, 10
		pts := experiments.RunConstrained(cfg)
		b.ReportMetric(float64(pts[0].Successes)/float64(pts[0].Trials), "lip-success")
		b.ReportMetric(pts[1].AvgToks/pts[0].AvgToks, "retry-token-x")
	}
}

// BenchmarkSpeculative regenerates E4 (§4.1).
func BenchmarkSpeculative(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultSpeculative()
				cfg.Ks = []int{0, k}
				pts := experiments.RunSpeculative(cfg)
				b.ReportMetric(pts[1].Speedup, "speedup-x")
				b.ReportMetric(pts[1].Acceptance, "acceptance")
			}
		})
	}
}

// BenchmarkMultiRound regenerates E5 (§2.1).
func BenchmarkMultiRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultMultiRound()
		cfg.Rounds = 5
		pts := experiments.RunMultiRound(cfg)
		var sym, tgi experiments.MultiRoundPoint
		for _, p := range pts {
			switch p.System {
			case experiments.SystemSymphony:
				sym = p
			case experiments.SystemTGI:
				tgi = p
			}
		}
		b.ReportMetric(float64(sym.MeanRound), "vns/round")
		if sym.MeanRound > 0 {
			b.ReportMetric(float64(tgi.MeanRound)/float64(sym.MeanRound), "speedup-x")
		}
	}
}

// BenchmarkTreeOfThought regenerates E6 (§4.3).
func BenchmarkTreeOfThought(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultTree()
		cfg.Branch, cfg.Depth = 2, 3
		pts := experiments.RunTree(cfg)
		var sym, tgi experiments.TreePoint
		for _, p := range pts {
			switch p.System {
			case experiments.SystemSymphony:
				sym = p
			case experiments.SystemTGI:
				tgi = p
			}
		}
		b.ReportMetric(float64(sym.E2E), "vns/tree")
		if sym.GPUTokens > 0 {
			b.ReportMetric(float64(tgi.GPUTokens)/float64(sym.GPUTokens), "gpu-token-x")
		}
	}
}

// BenchmarkEditor regenerates E7 (§2's editor example).
func BenchmarkEditor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultEditor()
		cfg.Keystrokes = 40
		pts := experiments.RunEditor(cfg)
		var sym, tgi experiments.EditorPoint
		for _, p := range pts {
			switch p.System {
			case experiments.SystemSymphony:
				sym = p
			case experiments.SystemTGI:
				tgi = p
			}
		}
		b.ReportMetric(float64(sym.MeanLatency), "vns/keystroke")
		if sym.MeanLatency > 0 {
			b.ReportMetric(float64(tgi.MeanLatency)/float64(sym.MeanLatency), "speedup-x")
		}
	}
}

// BenchmarkBatchPolicy regenerates ablation A1 (§4.4).
func BenchmarkBatchPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultBatchPolicy()
		cfg.Duration = 8 * time.Second
		pts := experiments.RunBatchPolicy(cfg)
		for _, p := range pts {
			b.ReportMetric(p.AvgBatch, "batch-"+p.Policy)
		}
	}
}

// BenchmarkScaling regenerates S1 (§4.4): batch-scheduler throughput
// across GPU replica counts under saturating closed-loop load, reporting
// virtual throughput and the speedup over one replica. The 1-replica
// baseline is deterministic, so it runs once up front rather than inside
// every timed iteration.
func BenchmarkScaling(b *testing.B) {
	base := experiments.RunScaling(func() experiments.ScalingConfig {
		cfg := experiments.QuickScaling()
		cfg.Replicas = []int{1}
		return cfg
	}())[0].Throughput
	for _, gpus := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("gpus=%d", gpus), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.QuickScaling()
				cfg.Replicas = []int{gpus}
				pt := experiments.RunScaling(cfg)[0]
				b.ReportMetric(pt.Throughput, "vthru-req/s")
				if base > 0 {
					b.ReportMetric(pt.Throughput/base, "speedup-x")
				}
				b.ReportMetric(pt.UtilMean, "util")
			}
		})
	}
}

// BenchmarkOverhead regenerates ablation A2 (§6).
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultOverhead()
		cfg.Requests = 20
		pts := experiments.RunOverhead(cfg)
		for _, p := range pts {
			if p.System == experiments.SystemSymphony {
				b.ReportMetric(p.Ratio, "overhead-x")
			}
		}
	}
}

// --- substrate micro-benchmarks (wall clock) ---

func benchFS() *kvfs.FS {
	return kvfs.NewFS(kvfs.Config{PageTokens: 16, GPUBytes: 1 << 30, HostBytes: 1 << 30, BytesPerToken: 1})
}

// BenchmarkKVFSAppend measures raw KV append throughput.
func BenchmarkKVFSAppend(b *testing.B) {
	fs := benchFS()
	f := fs.CreateAnon("bench")
	toks := make([]token.ID, 16)
	pos := make([]int, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pos {
			pos[j] = f.Len() + j
		}
		if _, err := f.Append(toks, pos); err != nil {
			f.Remove()
			f = fs.CreateAnon("bench")
		}
	}
}

// BenchmarkKVFSFork measures copy-on-write fork cost against its
// alternative, a deep copy via Extract.
func BenchmarkKVFSFork(b *testing.B) {
	fs := benchFS()
	f := fs.CreateAnon("bench")
	toks := make([]token.ID, 4096)
	pos := make([]int, 4096)
	for i := range pos {
		pos[i] = i
	}
	f.Append(toks, pos)
	b.Run("cow-fork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := f.Fork("bench")
			if err != nil {
				b.Fatal(err)
			}
			c.Remove()
		}
	})
	b.Run("deep-copy", func(b *testing.B) {
		idx := make([]int, 4096)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < b.N; i++ {
			c, err := f.Extract("bench", idx)
			if err != nil {
				b.Fatal(err)
			}
			c.Remove()
		}
	})
}

// BenchmarkModelDist measures next-token distribution synthesis.
func BenchmarkModelDist(b *testing.B) {
	m := model.New(model.Llama13B())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Next(model.CtxHash(i))
	}
}

// BenchmarkRegexCompile measures DFA construction for a typical pattern.
func BenchmarkRegexCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := grammar.CompileRegex(`v\d+\.\d+\.\d+(-[a-z]+)?`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONMachine measures incremental JSON validation.
func BenchmarkJSONMachine(b *testing.B) {
	doc := `{"a":[1,2,3],"b":{"c":"hello world","d":true},"e":-1.5e3}`
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		m := grammar.NewJSONMachine()
		if !m.StepString(doc) || !m.Complete() {
			b.Fatal("rejected valid doc")
		}
	}
}
