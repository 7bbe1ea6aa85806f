package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kvd"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/trace"
)

// deployFlags is the symphonyd flag set every workload runs against.
// Every other flag keeps the daemon's default: no disk tier,
// -max-jobs-per-user 32, and -prefix-cache off (see README.md).
const deployFlags = "-gpus 4 -dispatch cache-affinity-migrate -priority-policy lanes " +
	"-prefill-chunk 512 -spec-decode -kv-policy lru -kv-high-water 0.9"

// numTools is the number of agent tools; tool k answers after
// toolLatency(k), spanning 0.2-2 s of virtual time.
const numTools = 10

func toolLatency(k int) time.Duration { return time.Duration(k+1) * 200 * time.Millisecond }

// deployment is one Symphony kernel and its HTTP server, assembled the
// way cmd/symphonyd assembles them for deployFlags, but on a pure
// virtual clock so a run's modeled metrics are byte-deterministic.
type deployment struct {
	clk    *simclock.Clock
	kernel *core.Kernel
	srv    *server.Server
}

// newDeployment builds the deployment. spec=false turns speculative
// decoding off (the replay oracle); tracer may be nil.
//
// The simulated tokenizer assigns IDs in first-seen order, so the kernel
// gets a vocabulary pre-interned from the workloads' fixed lexicon, as a
// real tokenizer's vocabulary is fixed: a request then tokenizes the same
// whatever ran before it, which the replay check relies on.
func newDeployment(spec bool, tracer *trace.Tracer) *deployment {
	var specCfg *core.SpecConfig
	if spec {
		specCfg = &core.SpecConfig{Draft: "draft-1b", Window: sched.DefaultSpecWindow}
	}
	tok := token.NewTokenizer(token.NewVocab())
	tok.Encode(lexicon())
	clk := simclock.New()
	target := model.New(model.Llama13B())
	// Fields left out take the same defaults as the daemon's flags.
	k := core.New(clk, core.Config{
		Models: map[string]*model.Model{
			"llama-13b": target,
			"draft-1b":  model.New(model.AlignedDraft(target, 0.85)),
		},
		DefaultModel:   "llama-13b",
		PriorityPolicy: sched.DefaultLanes(),
		PrefillChunk:   512,
		Spec:           specCfg,
		Replicas:       4,
		Dispatcher:     &sched.CacheAffinityMigrate{},
		KV:             kvd.Config{Policy: "lru", HighWater: 0.9},
		Tokenizer:      tok,
		Tracer:         tracer,
	})
	k.RegisterTool("search", core.Tool{
		Latency: 150 * time.Millisecond,
		Fn:      func(args string) (string, error) { return "results for " + args, nil },
	})
	k.RegisterTool("weather", core.Tool{
		Latency: 100 * time.Millisecond,
		Fn:      func(args string) (string, error) { return fmt.Sprintf("weather(%s)=fair", args), nil },
	})
	for i := 0; i < numTools; i++ {
		k.RegisterTool(toolName(i), core.Tool{Latency: toolLatency(i), Fn: observation})
	}
	srv := server.NewWith(clk, k, server.Options{
		MaxJobsPerUser:  32,
		Retention:       10 * time.Minute,
		DefaultPriority: "normal",
	})
	return &deployment{clk: clk, kernel: k, srv: srv}
}

func toolName(k int) string { return fmt.Sprintf("tool-%d", k) }

// observation is every agent tool's answer: about 48 tokens of text
// derived from the arguments alone, so replays see identical results.
func observation(args string) (string, error) {
	h := fnv.New64a()
	h.Write([]byte(args))
	rng := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
	var b strings.Builder
	b.WriteString("result ")
	writeWords(&b, rng, 46)
	return b.String(), nil
}

// close stops every actor of the deployment.
func (d *deployment) close() { d.clk.Shutdown() }
