package core

import (
	"testing"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// TestPredCarriesProcessPriority checks the end-to-end path: a priority
// set at process submission reaches the batch scheduler's lane counters
// on every pred the process issues.
func TestPredCarriesProcessPriority(t *testing.T) {
	clk, k := newKernel()
	drive(t, clk, func() {
		for _, prio := range []sched.Priority{sched.Interactive, sched.Batch} {
			p := k.SubmitWith("user", greedyComplete("hello world", 3), SubmitOptions{Priority: prio})
			if err := p.Wait(); err != nil {
				t.Errorf("%v process: %v", prio, err)
			}
			if p.Priority() != prio {
				t.Errorf("Priority() = %v, want %v", p.Priority(), prio)
			}
		}
	})
	st := k.Stats().Sched
	var inter, norm, batch int64
	for _, l := range st.Lanes {
		switch l.Lane {
		case "interactive":
			inter = l.Calls
		case "normal":
			norm = l.Calls
		case "batch":
			batch = l.Calls
		}
	}
	if inter == 0 || batch == 0 {
		t.Fatalf("lane calls interactive=%d batch=%d, want both > 0 (%+v)", inter, batch, st.Lanes)
	}
	if norm != 0 {
		t.Fatalf("normal lane saw %d calls from prioritized processes", norm)
	}
}

// newPreemptKernel returns a kernel with an lru memory daemon whose
// interactive lane keeps a batch pred preempted: a tight step budget
// without aging holds the batch call off the GPU for as long as
// interactive calls keep arriving.
func newPreemptKernel(clk *simclock.Clock) *Kernel {
	bpt := model.A100Llama13B().KVBytesPerToken
	return New(clk, Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		FS: kvfs.Config{
			PageTokens:    16,
			GPUBytes:      8192 * bpt,
			HostBytes:     8192 * bpt * 16,
			BytesPerToken: bpt,
		},
		Policy:         sched.Immediate{},
		KV:             kvd.Config{Policy: "lru"},
		PriorityPolicy: &sched.Lanes{SliceTokens: 16, MaxStepTokens: 16, AgeAfter: -1},
	})
}

// TestPreemptedPredDoesNotPinKV checks scheduler/memory-daemon coherence:
// while a batch process's long pred sits preempted by interactive load,
// its KV file must be evictable (not pinned), and the call must still
// complete with its file usable afterwards.
func TestPreemptedPredDoesNotPinKV(t *testing.T) {
	clk := simclock.New()
	k := newPreemptKernel(clk)
	// A preemption happens at a step boundary and lasts at least until the
	// step it starts ends, one KernelOverhead or more later. A sampler
	// polling every tick shorter than that which sees the preemption count
	// rise is therefore looking at a call that is preempted right now.
	const tick = time.Millisecond
	if model.A100Llama13B().KernelOverhead <= tick {
		t.Fatal("sampler tick must be shorter than the shortest step")
	}
	preemptedSamples, pinnedWhilePreempted, maxPins := 0, 0, 0
	drive(t, clk, func() {
		var batchFile *kvfs.File
		batch := k.SubmitWith("batch", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			batchFile = f
			defer f.Remove()
			toks := make([]token.ID, 96)
			pos := make([]int, len(toks))
			for i := range toks {
				toks[i], pos[i] = token.ID(i+10), i
			}
			_, err = ctx.Pred(f, toks, pos)
			return err
		}, SubmitOptions{Priority: sched.Batch})

		inter := k.SubmitWith("inter", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			// Give the batch pred time to start stepping, then keep the
			// interactive lane saturated long enough that the batch call
			// is preempted at an iteration boundary.
			if err := ctx.Sleep(30 * time.Millisecond); err != nil {
				return err
			}
			for i := 0; i < 12; i++ {
				if _, err := ctx.Pred(f, []token.ID{token.ID(500 + i)}, []int{f.Len()}); err != nil {
					return err
				}
			}
			return nil
		}, SubmitOptions{Priority: sched.Interactive})

		sampler := k.Submit("sampler", func(ctx *Ctx) error {
			var seen int64
			for i := 0; i < 2000 && (batchFile == nil || !batchFile.Removed()); i++ {
				if err := ctx.Sleep(tick); err != nil {
					return err
				}
				if batchFile == nil || batchFile.Removed() {
					continue
				}
				// Pins reads 0 for a file the daemon does not track, so
				// only samples from the live file count, and maxPins shows
				// it was tracked.
				pins := k.KVD().Pins(batchFile)
				maxPins = max(maxPins, pins)
				if n := k.Stats().Sched.Preemptions; n > seen {
					seen = n
					preemptedSamples++
					pinnedWhilePreempted = max(pinnedWhilePreempted, pins)
				}
			}
			return nil
		})

		for _, p := range []*Process{batch, inter, sampler} {
			if err := p.Wait(); err != nil {
				t.Errorf("%s process: %v", p.User(), err)
			}
		}
	})
	st := k.Stats().Sched
	if st.Preemptions == 0 {
		t.Fatal("batch pred was never preempted")
	}
	if preemptedSamples == 0 {
		t.Fatal("no sample fell inside a preemption of the live batch file")
	}
	if maxPins == 0 {
		t.Fatal("the live batch file was never seen pinned, so the daemon may not track it")
	}
	if pinnedWhilePreempted != 0 {
		t.Fatalf("preempted call's KV file pin count = %d, want 0 (evictable)", pinnedWhilePreempted)
	}
	if st.ExecutedTokens != st.Tokens {
		t.Fatalf("executed %d of %d submitted tokens", st.ExecutedTokens, st.Tokens)
	}
}

// TestPreemptResumeBillsRestore pins what the scheduler's resume hook
// bills: the memory daemon reclaims a batch pred's file while the call
// sits preempted, and on resume the PCIe restore is charged exactly once
// — to the daemon's policy restore ledger and to the kernel's restore
// time alike — without losing any of the call's tokens.
func TestPreemptResumeBillsRestore(t *testing.T) {
	clk := simclock.New()
	k := newPreemptKernel(clk)
	var before kvd.Stats
	var beforeRestore time.Duration
	offloaded := 0
	drive(t, clk, func() {
		var batchFile *kvfs.File
		batch := k.SubmitWith("batch", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			batchFile = f
			defer f.Remove()
			toks := make([]token.ID, 96)
			pos := make([]int, len(toks))
			for i := range toks {
				toks[i], pos[i] = token.ID(i+10), i
			}
			_, err = ctx.Pred(f, toks, pos)
			return err
		}, SubmitOptions{Priority: sched.Batch})

		inter := k.SubmitWith("inter", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			if err := ctx.Sleep(30 * time.Millisecond); err != nil {
				return err
			}
			for i := 0; i < 12; i++ {
				if _, err := ctx.Pred(f, []token.ID{token.ID(500 + i)}, []int{f.Len()}); err != nil {
					return err
				}
			}
			return nil
		}, SubmitOptions{Priority: sched.Interactive})

		// The batch call is unpinned only while an interactive step
		// holds it preempted. Then its file is the one eviction
		// candidate (the interactive file is pinned by its own pred),
		// so a one-token reclaim offloads exactly that file.
		reclaimer := k.Submit("reclaimer", func(ctx *Ctx) error {
			for i := 0; i < 400 && offloaded == 0; i++ {
				if err := ctx.Sleep(time.Millisecond); err != nil {
					return err
				}
				if batchFile == nil || batchFile.Removed() || k.KVD().Pins(batchFile) != 0 {
					continue
				}
				st := k.Stats()
				before, beforeRestore = st.KVD, st.RestoreTime
				k.KVD().Reclaim(1)
				_, offloaded, _ = batchFile.ResidentTokens()
			}
			return nil
		})

		for _, p := range []*Process{batch, inter, reclaimer} {
			if err := p.Wait(); err != nil {
				t.Errorf("%s process: %v", p.User(), err)
			}
		}
	})
	if offloaded == 0 {
		t.Fatal("the preempted batch file was never offloaded")
	}
	st := k.Stats()
	if st.Sched.Preemptions == 0 {
		t.Fatal("batch pred was never preempted")
	}
	want := model.A100Llama13B().TransferTime(offloaded)
	if got := st.KVD.Restores - before.Restores; got != 1 {
		t.Errorf("kvd restores grew by %d, want 1", got)
	}
	if got := st.KVD.RestoredTokens - before.RestoredTokens; got != int64(offloaded) {
		t.Errorf("kvd restored_tokens grew by %d, want %d", got, offloaded)
	}
	if got := st.KVD.RestoredCost - before.RestoredCost; got != want {
		t.Errorf("kvd restored_cost grew by %v, want TransferTime(%d) = %v", got, offloaded, want)
	}
	if got := st.RestoreTime - beforeRestore; got != want {
		t.Errorf("core restore_time grew by %v, want %v", got, want)
	}
	if st.Sched.ExecutedTokens != st.Sched.Tokens {
		t.Errorf("executed %d of %d submitted tokens", st.Sched.ExecutedTokens, st.Sched.Tokens)
	}
}
