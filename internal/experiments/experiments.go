// Package experiments contains the drivers that regenerate every figure
// and quantitative claim of the paper (docs/EXPERIMENTS.md is the index).
// The same code backs cmd/symphony-bench, through Registry, and the
// testing.B benchmarks in the repository root, so the numbers in
// docs/EXPERIMENTS.md are reproducible with either entry point.
package experiments

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/simclock"
	"repro/internal/token"
)

// newRand returns a seeded deterministic source for experiment drivers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// seedBase maps an experiment config's Seed to the offset applied to its
// deterministic token/prompt seed streams, so different seeds draw
// disjoint synthetic workloads. Seed 0 (zero-value config) and Seed 1
// both mean the recorded baseline: offset zero, so BENCH_*.json
// artifacts stay byte-identical to the trajectories already checked in.
func seedBase(seed int64) int {
	if seed == 0 {
		seed = 1
	}
	return int(seed-1) * 10_000_000
}

// SystemSymphony, SystemVLLM, SystemTGI name the three serving systems
// under comparison.
const (
	SystemSymphony = "symphony"
	SystemVLLM     = "vllm-sim"
	SystemTGI      = "tgi-sim"
)

// AllSystems lists the systems in presentation order.
var AllSystems = []string{SystemSymphony, SystemVLLM, SystemTGI}

// drive runs fn as the root actor of clk and blocks until the simulation
// quiesces, then shuts the clock down. It is the entry point every
// experiment uses.
func drive(clk *simclock.Clock, fn func()) {
	done := make(chan struct{})
	go func() {
		clk.Go("experiment", fn)
		clk.WaitQuiescent()
		close(done)
	}()
	<-done
	clk.Shutdown()
}

// admitGate is a FIFO counting semaphore over KV-token capacity: the RAG
// application's own admission control. Without it, unbounded concurrent
// programs can exhaust KV memory mid-decode and deadlock — each holds
// pages while waiting for pages others hold. Real serving systems queue
// requests at admission for exactly this reason (the baselines'
// server-side gate); under Symphony the policy lives in the application,
// which knows each request's true footprint (a popular-topic request
// needs ~100 tokens, an uncached one ~3,100).
type admitGate struct {
	clk *simclock.Clock
	cap int

	mu      sync.Mutex
	free    int
	waiters []*admitWaiter
}

type admitWaiter struct {
	n  int
	ev *simclock.Event
}

func newAdmitGate(clk *simclock.Clock, cap int) *admitGate {
	return &admitGate{clk: clk, cap: cap, free: cap}
}

// Acquire blocks until n tokens of capacity are free, FIFO. Requests
// larger than the whole gate are clamped so they can still run alone.
func (g *admitGate) Acquire(n int) (granted int, err error) {
	if n > g.cap {
		n = g.cap
	}
	g.mu.Lock()
	if len(g.waiters) == 0 && g.free >= n {
		g.free -= n
		g.mu.Unlock()
		return n, nil
	}
	w := &admitWaiter{n: n, ev: g.clk.NewEvent()}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	if err := w.ev.Wait(); err != nil {
		return 0, err
	}
	return n, nil
}

// Release returns capacity and admits waiters in order.
func (g *admitGate) Release(n int) {
	g.mu.Lock()
	g.free += n
	for len(g.waiters) > 0 && g.waiters[0].n <= g.free {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.free -= w.n
		w.ev.Fire()
	}
	g.mu.Unlock()
}

// synthPred appends n synthetic tokens, seed, seed+1, ..., to f through
// the pred syscall.
func synthPred(ctx *core.Ctx, f *kvfs.File, n, seed int) error {
	toks := make([]token.ID, n)
	pos := make([]int, n)
	base := f.Len()
	for i := range toks {
		toks[i] = token.ID(seed + i)
		pos[i] = base + i
	}
	_, err := ctx.Pred(f, toks, pos)
	return err
}

// fig3FS sizes a KV file system for an experiment.
func fig3FS(gpuBytes, bytesPerToken int64) kvfs.Config {
	fs := kvfs.DefaultConfig()
	fs.GPUBytes = gpuBytes
	fs.BytesPerToken = bytesPerToken
	return fs
}

// retryNoSpace retries op while it fails with KV-cache OOM, parking on
// the kernel's space-available signal (with a 250ms liveness fallback)
// between attempts. This is *application* queueing policy living in a LIP
// — the kernel provides only the wakeup mechanism (Ctx.KvWaitSpace); how
// a program reacts to memory pressure is its own business.
func retryNoSpace(ctx *core.Ctx, op func() error) error {
	const attempts = 20000
	var err error
	for i := 0; i < attempts; i++ {
		err = op()
		if !errors.Is(err, kvfs.ErrNoSpace) {
			return err
		}
		if werr := ctx.KvWaitSpace(250 * time.Millisecond); werr != nil {
			return werr
		}
	}
	return err
}
