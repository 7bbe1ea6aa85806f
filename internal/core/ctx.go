package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/trace"
)

// Ctx is the per-thread system-call interface handed to a LIP. All methods
// must be called from the thread's own goroutine (each Spawn gets its own
// Ctx).
type Ctx struct {
	p   *Process
	tid int

	// tracked holds the private KV files this thread created; the kernel
	// offloads them to host memory while the thread waits on external I/O
	// (paper §4.3) and restores them lazily on the next Pred.
	tracked []*kvfs.File
}

// Clock exposes the virtual clock (LIPs use it for Sleep-style pacing).
func (c *Ctx) Clock() *simclock.Clock { return c.p.k.clk }

// PID returns the calling process's ID.
func (c *Ctx) PID() int { return c.p.pid }

// User returns the process's user.
func (c *Ctx) User() string { return c.p.user }

// Kernel returns the kernel. Exposed for observability helpers; LIPs are
// expected to use the system calls below.
func (c *Ctx) Kernel() *Kernel { return c.p.k }

// Sleep parks the thread for d of virtual time.
func (c *Ctx) Sleep(d time.Duration) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	return c.p.k.clk.Sleep(d)
}

// Tokenize converts text to token IDs.
func (c *Ctx) Tokenize(s string) []token.ID { return c.p.k.tok.Encode(s) }

// Detokenize converts token IDs back to text.
func (c *Ctx) Detokenize(ids []token.ID) string { return c.p.k.tok.Decode(ids) }

// Emit appends text to the process output stream and publishes it as an
// emit event to process subscribers. Write and publish happen under one
// lock so the event order always matches the output order, even across
// threads.
func (c *Ctx) Emit(s string) {
	c.p.mu.Lock()
	c.p.out.WriteString(s)
	//lint:allow locksafepublish publish is deliberately under p.mu so event order matches output order; publish only buffers, never calls out
	c.p.publish(ProcEvent{Kind: EventEmit, Text: s})
	c.p.mu.Unlock()
}

// PublishToken streams an incremental generated-text chunk to process
// subscribers without touching the output stream; the generating
// statement emits (or stores) the full text when it completes.
func (c *Ctx) PublishToken(text string) {
	c.p.publish(ProcEvent{Kind: EventToken, Text: text})
}

// PublishStatement brackets an interpreter statement for observers: phase
// is "start" or "end", op and index identify the statement, and detail is
// optional free text.
func (c *Ctx) PublishStatement(index int, op, phase, detail string) {
	c.p.publish(ProcEvent{Kind: EventStatement, Op: op, Index: index, Phase: phase, Text: detail})
}

// EmitTokens decodes and emits token IDs.
func (c *Ctx) EmitTokens(ids []token.ID) { c.Emit(c.Detokenize(ids)) }

// --- KVFS system calls (§4.2) ---

func (c *Ctx) track(f *kvfs.File) *kvfs.File {
	c.tracked = append(c.tracked, f)
	if k := c.p.k; k.kvd.Enabled() {
		p := c.p
		k.kvd.Track(f, p.pid, func(ev kvd.Event) {
			p.publish(ProcEvent{Kind: EventKVPressure, Phase: ev.Phase, Text: kvdDetail(ev)})
		})
	}
	return f
}

// kvdDetail renders a daemon event for the process event stream.
func kvdDetail(ev kvd.Event) string {
	if ev.Tokens > 0 {
		return fmt.Sprintf("%d tokens, policy %s", ev.Tokens, ev.Policy)
	}
	return "policy " + ev.Policy
}

// KvCreate makes a new named KV file owned by the calling user.
func (c *Ctx) KvCreate(path string, mode kvfs.Mode) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	c.p.k.kvCalls.Inc()
	f, err := c.p.k.fs.Create(path, c.p.user, mode)
	if err != nil {
		return nil, err
	}
	return c.track(f), nil
}

// KvAnon makes a new anonymous scratch KV file.
func (c *Ctx) KvAnon() (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	c.p.k.kvCalls.Inc()
	return c.track(c.p.k.fs.CreateAnon(c.p.user)), nil
}

// KvOpen opens a named KV file with the given intent, enforcing KVFS
// access control. Opened (shared) files are not tracked for I/O offload —
// other programs may be using them.
func (c *Ctx) KvOpen(path string, write bool) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	c.p.k.kvCalls.Inc()
	return c.p.k.fs.Open(path, c.p.user, write)
}

// KvFork clones f copy-on-write (Figure 2's kv_fork). Forking requires
// read access: the clone carries the original's content. On a kernel
// with a KV memory daemon, a parent the daemon offloaded is restored
// transparently first (forking pins shared pages to the GPU tier).
func (c *Ctx) KvFork(f *kvfs.File) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	if err := f.CheckAccess(c.p.user, false); err != nil {
		return nil, err
	}
	k := c.p.k
	k.kvCalls.Inc()
	k.kvd.Pin(f)
	defer k.kvd.Unpin(f)
	// Forking needs the parent on the GPU; there is no pred to fold a
	// recompute into, so disk pages are loaded, never recomputed.
	if _, err := c.ensureResident(f, k.models[k.defMod].Config().Cost, false); err != nil {
		return nil, err
	}
	k.kvd.Touch(f)
	child, err := f.Fork(c.p.user)
	if err != nil {
		return nil, err
	}
	return c.track(child), nil
}

// KvExtract builds a new file from selected token indices of f. The new
// file's page allocation reclaims cold files under a KV memory daemon.
func (c *Ctx) KvExtract(f *kvfs.File, indices []int) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	k := c.p.k
	k.kvCalls.Inc()
	k.kvd.Pin(f)
	defer k.kvd.Unpin(f)
	k.kvd.Touch(f)
	var child *kvfs.File
	err := k.withReclaim(len(indices), func() error {
		var xerr error
		child, xerr = f.Extract(c.p.user, indices)
		return xerr
	})
	if err != nil {
		return nil, err
	}
	return c.track(child), nil
}

// KvMerge concatenates files into a new one. The new file's page
// allocation reclaims cold files under a KV memory daemon.
func (c *Ctx) KvMerge(files ...*kvfs.File) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	k := c.p.k
	k.kvCalls.Inc()
	need := 0
	for _, f := range files {
		k.kvd.Pin(f)
		defer k.kvd.Unpin(f)
		k.kvd.Touch(f)
		need += f.Len()
	}
	var child *kvfs.File
	err := k.withReclaim(need, func() error {
		var merr error
		child, merr = k.fs.Merge(c.p.user, files...)
		return merr
	})
	if err != nil {
		return nil, err
	}
	return c.track(child), nil
}

// KvLink names an anonymous file, making it durable across processes.
func (c *Ctx) KvLink(f *kvfs.File, path string) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	c.p.k.kvCalls.Inc()
	return c.p.k.fs.Link(f, path, c.p.user)
}

// KvRemove deletes a named file.
func (c *Ctx) KvRemove(path string) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	c.p.k.kvCalls.Inc()
	return c.p.k.fs.Remove(path, c.p.user)
}

// KvList lists named files with the given prefix.
func (c *Ctx) KvList(prefix string) []string {
	c.p.k.kvCalls.Inc()
	return c.p.k.fs.List(prefix)
}

// KvWaitSpace parks the thread until some GPU KV memory is freed anywhere
// in the system, or until maxWait elapses (liveness fallback against
// missed wakeups). What to do on wake — retry, shed work, give up — is
// the program's policy; the kernel only provides the signal. It returns
// immediately if the process is cancelled.
func (c *Ctx) KvWaitSpace(maxWait time.Duration) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	if maxWait <= 0 {
		maxWait = 100 * time.Millisecond
	}
	_, err := c.p.k.spaceEvent().WaitFor(maxWait)
	if err != nil {
		return err
	}
	return c.p.checkLive()
}

// KvLock acquires f's advisory lock, parking until it is free. The lock
// identity is the process, so threads of one process share the lock.
func (c *Ctx) KvLock(f *kvfs.File) error {
	who := fmt.Sprintf("pid-%d", c.p.pid)
	for {
		if err := c.p.checkLive(); err != nil {
			return err
		}
		err := f.TryLock(who)
		if err == nil {
			return nil
		}
		if holder := f.LockedBy(); holder == who {
			return err // non-recursive: surface immediately
		}
		if err := c.p.k.clk.Sleep(time.Millisecond); err != nil {
			return err
		}
	}
}

// KvUnlock releases f's advisory lock.
func (c *Ctx) KvUnlock(f *kvfs.File) error {
	return f.Unlock(fmt.Sprintf("pid-%d", c.p.pid))
}

// --- pred system call (§4.1) ---

// Pred is the model-computation system call against the default model:
//
//	pred(kv, tokens, positions) -> []dist
//
// It appends the given tokens (at their absolute positions) to the KV
// file, runs one batched forward pass, and returns the next-token
// distribution observed after each input token. The calling thread parks
// in the inference pool until the GPU step containing the call completes.
func (c *Ctx) Pred(f *kvfs.File, toks []token.ID, positions []int) ([]model.Dist, error) {
	return c.PredModel("", f, toks, positions)
}

// PredModel is Pred against a named model (e.g. a draft model for
// library-level speculative decoding, internal/lip).
func (c *Ctx) PredModel(modelName string, f *kvfs.File, toks []token.ID, positions []int) ([]model.Dist, error) {
	return c.pred(modelName, f, toks, positions, false)
}

// PredDecode is Pred for an autoregressive decode run against the
// default model: the tokens are generated sequentially, so the GPU
// advances the call one token per iteration instead of prefilling the
// whole run in one slice — unless the kernel was configured with
// speculative decoding (Config.Spec), in which case each iteration
// drafts a window on the cheap draft model and verifies it inside the
// call's own step, retiring the accepted run plus one correction token
// at a time. Billing is identical to Pred (every token charged once at
// submission); only the step-loop physics differ.
//
// The caller supplies the run's tokens up front — the simulated model
// is deterministic, so a greedy chain is known at submission (see
// lip.GenerateDecode); the GPU step only decides when the results exist.
func (c *Ctx) PredDecode(f *kvfs.File, toks []token.ID, positions []int) ([]model.Dist, error) {
	return c.pred("", f, toks, positions, true)
}

// pred is the shared body of the pred-family system calls.
func (c *Ctx) pred(modelName string, f *kvfs.File, toks []token.ID, positions []int, decode bool) ([]model.Dist, error) {
	k := c.p.k
	m, err := k.Model(modelName)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("core: pred with no tokens")
	}
	// pred mutates the file: enforce write access at the syscall boundary.
	if err := f.CheckAccess(c.p.user, true); err != nil {
		return nil, err
	}
	if err := c.p.chargeTokens(len(toks)); err != nil {
		return nil, err
	}
	if err := k.chargeUser(c.p.user, len(toks)); err != nil {
		return nil, err
	}

	// Cooperative preemption: under sustained GPU memory pressure the
	// longest-idle process yields briefly before allocating, instead of
	// the kernel failing anyone's allocation. The scheduler's admission
	// gate then defers this call ahead of its KV allocation while
	// pressure sits above the admission watermark, giving the memory
	// daemon room to reclaim before fresh pages are taken.
	c.maybePark()
	if err := k.sch.Admit(); err != nil {
		return nil, err
	}
	k.kvd.Touch(f)

	// extra counts disk-resident prefix tokens ensureResident chose to
	// recompute rather than load: they ride in this call's batch entry so
	// the GPU step pays their prefill (see migrate.go's recompute path).
	// A decode call has no prefill entry to fold a rebuild into, so for
	// it disk pages are always loaded, never recomputed.
	extra := 0

	// Radix prefix cache (prefixcache.go): a fresh prefill whose prompt
	// starts at position zero is matched against the kernel's tree of
	// committed prefixes. On a hit the deepest cached node is attached by
	// COW share — the node file held under a reader and a pin so neither
	// eviction nor the memory daemon can reclaim it mid-attach — and only
	// the uncached tail is appended and submitted. A disk-resident match
	// pays the usual promote-vs-recompute decision here, folding any
	// recompute tokens into the call's batch entry.
	cacheable := k.pcache != nil && !decode && f.Len() == 0 &&
		identityPositions(positions) && len(toks) >= k.pcache.chunk
	var pnode *prefixNode
	attached := 0
	if cacheable {
		if n, depth := k.pcache.match(toks); n != nil {
			k.kvd.Pin(n.file)
			k.kvd.Touch(n.file)
			if _, rerr := c.ensureResident(n.file, m.Config().Cost, true); rerr != nil {
				// Cannot bring the cached prefix back: treat as a miss.
				k.kvd.Unpin(n.file)
				k.pcache.release(n)
			} else {
				pnode, attached = n, depth
				defer k.kvd.Unpin(n.file)
				defer k.pcache.release(n)
			}
		}
	}

	// predAlloc is the memory-acquisition phase of the call: with the
	// file pinned (the daemon never offloads KV an in-flight pred is
	// using), restore it if a tool wait or the daemon offloaded it, then
	// append the new tokens, reclaiming cold files on allocation
	// failure. On success the pin is retained — the GPU step still
	// reads these pages — and released after the scheduler returns; on
	// failure it is released so self-preemption can swap the file out.
	var tails []model.CtxHash
	// preTail is the context hash ahead of this call's tokens: the
	// speculation bitmap's first position draws from it.
	preTail := f.Tail()
	predAlloc := func() error {
		k.kvd.Pin(f)
		k.kvd.MaybeReclaim()
		n, err := c.ensureResident(f, m.Config().Cost, !decode)
		if err != nil {
			k.kvd.Unpin(f)
			return err
		}
		extra += n
		if attached > 0 && f.Len() == 0 {
			if aerr := f.AdoptPrefix(pnode.file, attached); aerr != nil {
				// Share refused (the node file lost residency despite the
				// pin, or a restart raced): fall back to a full prefill.
				// The deferred release/unpin still run.
				attached = 0
			}
		}
		// The KV entries and their context hashes are fixed at
		// submission; the GPU step only determines *when* the results
		// exist.
		aerr := k.withReclaim(len(toks)-attached, func() error {
			var err error
			tails, err = f.Append(toks[attached:], positions[attached:])
			return err
		})
		if aerr != nil {
			k.kvd.Unpin(f)
		}
		return aerr
	}
	err = predAlloc()
	// Concurrent preds can exhaust the GPU tier while each holds its own
	// file pinned — nothing is evictable and everyone stalls. Break the
	// hold-and-wait by self-preemption (vLLM-style swap): give back this
	// call's residency, wait for space freed elsewhere, restore and
	// retry. Waits grow with the attempt count and carry a deterministic
	// per-process stagger, so standoffs thin out instead of thundering.
	for attempt := 0; errors.Is(err, kvfs.ErrNoSpace) && k.kvd.Enabled() && attempt < selfPreemptRetries; attempt++ {
		if lerr := c.p.checkLive(); lerr != nil {
			// A cancel must surface as a cancellation, not as the
			// standoff's ErrNoSpace.
			return nil, lerr
		}
		k.kvd.Preempt(f)
		wait := time.Duration(1+attempt/4) * time.Millisecond
		if wait > 16*time.Millisecond {
			wait = 16 * time.Millisecond
		}
		wait += time.Duration(c.p.pid%5) * 200 * time.Microsecond
		if _, werr := k.spaceEvent().WaitFor(wait); werr != nil {
			return nil, err
		}
		err = predAlloc()
	}
	if err != nil {
		return nil, err
	}
	defer k.kvd.Unpin(f)
	k.predCalls.Inc()
	k.predTokens.Add(int64(len(toks)))

	if attached > 0 {
		// Hit ledger: the attached tokens were charged to the user (the
		// prompt was submitted in full) but are billed to the GPU as
		// saved, not executed — the scheduler only sees the tail.
		k.pcache.noteAttach(attached, time.Duration(attached)*m.Config().Cost.PerToken)
		c.p.publish(ProcEvent{Kind: EventKVShare, Phase: "attach",
			Text: fmt.Sprintf("%d of %d tokens", attached, len(toks))})
	}

	pstart := k.clk.Now()
	// The affinity key is the file's root KV hash: forks of one
	// conversation share it, so cache-aware dispatch keeps them on the
	// replica already holding their prefix. The process's priority lane
	// rides on every call so urgency expressed at submission reaches the
	// GPU iteration loop.
	call := sched.Call{
		Model:    resolvedName(k, modelName),
		Tokens:   len(toks) - attached + extra,
		Affinity: uint64(f.Root()),
		Priority: c.p.prio,
		Decode:   decode,
	}
	// placed learns the replica the scheduler routed the call to, so the
	// prefix cache can home the prompt's tree path there for crash
	// invalidation. The callback runs on the submitting actor before the
	// call is enqueued, strictly before SubmitCall returns.
	placed := -1
	if cacheable {
		call.Placed = func(r int) { placed = r }
	}
	if attached > 0 {
		// Cache-aware scheduling: the matched length lets same-lane
		// executors clear the shortest remaining prefill first, and the
		// deepest matched node's hash — not just the root — steers the
		// cache-affinity dispatchers and the migration engine's prefix
		// index to that node's home replica.
		call.PrefixHit = attached
		call.Affinity = uint64(pnode.tail)
	}
	if decode && k.spec != nil && call.Model == k.defMod && len(toks) > 1 {
		// Precompute the acceptance bitmap from the deterministic model
		// pair: position i is accepted iff the draft's greedy proposal
		// from the context ahead of it matches the target's. The executor
		// consults it round by round; no randomness at execution time, so
		// identically-seeded runs speculate identically.
		draft := k.models[k.spec.Draft]
		accept := make([]bool, len(toks)-1)
		h := preTail
		for i := range accept {
			accept[i] = draft.Next(h).Greedy() == m.Next(h).Greedy()
			h = tails[i]
		}
		call.Spec = &sched.SpecCall{
			Draft:     k.spec.Draft,
			Window:    k.spec.Window,
			MinWindow: k.spec.MinWindow,
			MaxWindow: k.spec.MaxWindow,
			Accept:    accept,
		}
	}
	if k.kvd.Enabled() {
		// Keep scheduler preemption coherent with the memory daemon: a
		// call descheduled at an iteration boundary must not hold its KV
		// file pinned, or preempted state would be unevictable under
		// pressure. On resume the pin returns, and if the daemon offloaded
		// the file meanwhile the PCIe restore is charged to the resuming
		// step. Runs on the replica actor; nothing here blocks.
		cost := m.Config().Cost
		call.OnPreempt = func(preempted bool) time.Duration {
			if preempted {
				k.kvd.Unpin(f)
				return 0
			}
			k.kvd.Pin(f)
			if f.GPUResident() {
				return 0
			}
			// Like ensureResident, charge whatever actually moved even if
			// the restore then failed for the rest: those pages are on the
			// GPU now and no later path would bill them. Tokens still on
			// the host are the next pred's problem (ensureResident).
			n, _ := f.Restore()
			d := k.billRestore(f, n, cost)
			if !f.GPUResident() {
				// The daemon spilled part of the file down to disk while
				// this call sat preempted: load it back at NVMe+PCIe cost.
				// No recompute option here — the call's batch entry is
				// already sized.
				moved, _ := f.PromoteDisk()
				d += k.billDiskLoad(f, moved, cost)
			}
			return d
		}
	}
	if k.mig != nil {
		// Migration-aware dispatch: the engine pins the call to the
		// family's current home, moving the prefix first (interconnect
		// copy or destination recompute, charged here) when the home is
		// overloaded. beginPred/endPred mark the file in flight so no
		// concurrent call migrates it from under this one.
		k.mig.beginPred(f)
		defer k.mig.endPred(f)
		k.mig.route(c, f, &call, m.Config().Cost)
	}
	k.gauge(stateRunning, stateInferWait)
	serr := k.sch.SubmitCall(call)
	k.gauge(stateInferWait, stateRunning)
	if serr != nil {
		return nil, serr
	}
	if k.tracer != nil {
		k.tracer.Span(trace.Event{
			At: pstart, Dur: k.clk.Now() - pstart, PID: c.p.pid, TID: c.tid,
			Kind: trace.KindPred, Detail: fmt.Sprintf("%d tokens @%s", len(toks), resolvedName(k, modelName)),
		})
	}

	if cacheable {
		// Commit the freshly committed prompt's chunk boundaries into the
		// radix tree while f is still pinned and GPU-resident, homing the
		// path on the replica that ran the call.
		k.pcache.insert(f, toks, placed)
	}

	// The attached prefix's per-token context hashes equal what appending
	// those tokens would have produced (AdoptPrefix shares exact KV), so
	// the caller still receives one distribution per submitted token.
	dists := make([]model.Dist, len(toks))
	h := model.CtxHash(0)
	for i := 0; i < attached; i++ {
		h = h.Extend(toks[i], i)
		dists[i] = m.Next(h)
	}
	for i, th := range tails {
		dists[attached+i] = m.Next(th)
	}
	return dists, nil
}

// identityPositions reports whether positions is exactly 0..n-1 — the
// shape of a fresh full-prompt prefill, the only one the prefix cache
// matches (cached nodes are keyed by position-zero context hashes).
func identityPositions(positions []int) bool {
	for i, p := range positions {
		if p != i {
			return false
		}
	}
	return true
}

func resolvedName(k *Kernel, name string) string {
	if name == "" {
		return k.defMod
	}
	return name
}

// parkSlice and maxPark bound one cooperative-preemption episode: the
// parked thread re-checks pressure every slice and never yields longer
// than maxPark in total, so preemption sheds load without starving.
// selfPreemptRetries bounds how often one pred call will swap itself out
// and retry before surfacing ErrNoSpace. The budget is generous on
// purpose: competitors hold GPU pages only for finite work, so a stalled
// call that keeps yielding eventually wins unless memory is truly
// exhausted by locked files for the whole span.
const (
	parkSlice          = time.Millisecond
	maxPark            = 10 * time.Millisecond
	selfPreemptRetries = 1024
)

// maybePark yields the calling thread while the KV memory daemon judges
// its process the best one to preempt (longest idle under high
// pressure). Each slice it nudges the daemon to reclaim and then waits
// for freed space; it returns as soon as pressure subsides, the verdict
// moves to a colder process, or the bound elapses.
func (c *Ctx) maybePark() {
	k := c.p.k
	if !k.kvd.ShouldPark(c.p.pid) {
		return
	}
	k.kvd.NotePark(c.p.pid)
	for waited := time.Duration(0); waited < maxPark; waited += parkSlice {
		k.kvd.MaybeReclaim()
		if _, err := k.spaceEvent().WaitFor(parkSlice); err != nil {
			return
		}
		if c.p.CancelRequested() || !k.kvd.ShouldPark(c.p.pid) {
			return
		}
	}
}

// ensureResident brings f fully back to the GPU tier if a tool wait,
// the memory daemon, or a restart left pages elsewhere. Host pages are
// restored at PCIe cost, charged to the calling thread and credited to
// the daemon's restore ledger. Disk pages are promoted either by loading
// their tensors from the snapshot store (NVMe read + PCIe, slept here)
// or — when allowRecompute is set and prefill is estimated cheaper — by
// recomputing them inside the caller's own pred: the returned extra is
// the token count the caller must add to its batch call so the GPU step
// pays the prefill.
func (c *Ctx) ensureResident(f *kvfs.File, cost model.CostModel, allowRecompute bool) (extra int, err error) {
	k := c.p.k
	if f.GPUResident() {
		return 0, nil
	}
	rstart := k.clk.Now()
	_, host, disk := f.ResidentTokens()
	restored := 0
	rerr := k.withReclaim(host, func() error {
		n, err := f.Restore()
		restored += n
		return err
	})
	if restored > 0 {
		if err := k.clk.Sleep(k.billRestore(f, restored, cost)); err != nil {
			return 0, err
		}
		if k.tracer != nil {
			k.tracer.Span(trace.Event{
				At: rstart, Dur: k.clk.Now() - rstart, PID: c.p.pid, TID: c.tid,
				Kind: trace.KindRestore, Detail: fmt.Sprintf("%d tokens", restored),
			})
		}
	}
	if rerr != nil || disk == 0 {
		return 0, rerr
	}

	// Disk pages: the same migrate-vs-recompute economics as the
	// cross-replica engine (migrate.go), one level down. The durable copy
	// stays behind either way; only the billing differs.
	dstart := k.clk.Now()
	recompute := allowRecompute && time.Duration(disk)*cost.PerToken < cost.DiskLoadTime(disk)
	promoted := 0
	perr := k.withReclaim(disk, func() error {
		n, err := f.PromoteDisk()
		promoted += n
		return err
	})
	if promoted > 0 {
		if recompute {
			k.kvd.NoteDiskRecompute(f, promoted)
			extra = promoted
		} else if err := k.clk.Sleep(k.billDiskLoad(f, promoted, cost)); err != nil {
			return 0, err
		}
		if k.tracer != nil {
			k.tracer.Span(trace.Event{
				At: dstart, Dur: k.clk.Now() - dstart, PID: c.p.pid, TID: c.tid,
				Kind: trace.KindRestore, Detail: fmt.Sprintf("%d tokens (disk, recompute=%t)", promoted, recompute),
			})
		}
	}
	return extra, perr
}

// billRestore is the one billing site for a PCIe restore: tokens of f
// that moved host→GPU are charged to the kernel's restore time and the
// daemon's restore ledger. It returns the transfer time, which the
// caller sleeps or adds to its GPU step. Zero tokens bill nothing.
func (k *Kernel) billRestore(f *kvfs.File, tokens int, cost model.CostModel) time.Duration {
	if tokens <= 0 {
		return 0
	}
	d := cost.TransferTime(tokens)
	k.restoreTime.Add(int64(d))
	k.kvd.NoteRestore(f, tokens, d)
	return d
}

// billDiskLoad is the one billing site for an NVMe load: tokens of f
// promoted disk→GPU by reading their tensors are charged to the daemon's
// disk-load ledger. It returns the NVMe-plus-PCIe time, which the caller
// sleeps or adds to its GPU step. Zero tokens bill nothing.
func (k *Kernel) billDiskLoad(f *kvfs.File, tokens int, cost model.CostModel) time.Duration {
	if tokens <= 0 {
		return 0 // DiskLoadTime(0) is the latency floor, not zero
	}
	d := cost.DiskLoadTime(tokens)
	k.kvd.NoteDiskLoad(f, tokens, d)
	return d
}

// --- threads (§4.3) ---

// Spawn starts fn as a new thread of the process. The process does not
// exit until the thread finishes, joined or not.
func (c *Ctx) Spawn(fn Program) (*Thread, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	p := c.p
	p.mu.Lock()
	p.threadSeq++
	tid := p.threadSeq
	p.mu.Unlock()
	t := &Thread{id: tid, done: p.k.clk.NewEvent()}
	p.wg.Add(1)
	p.k.gauge(stateDone, stateRunning)
	p.k.clk.Go(fmt.Sprintf("lip-%d.%d", p.pid, tid), func() {
		err := runGuarded(fn, &Ctx{p: p, tid: tid})
		t.mu.Lock()
		t.err = err
		t.mu.Unlock()
		p.k.gauge(stateRunning, stateDone)
		t.done.Fire()
		p.wg.Done()
	})
	return t, nil
}

// --- integrated external interaction (§4.3, §2.2) ---

// Call invokes a kernel-registered tool server-side. The thread enters the
// I/O wait state for the tool's latency; if the wait is long enough to be
// worth it, the kernel offloads the thread's private KV files to host
// memory for the duration, freeing GPU pages for other programs.
func (c *Ctx) Call(tool string, args string) (string, error) {
	k := c.p.k
	if err := c.p.checkLive(); err != nil {
		return "", err
	}
	k.mu.Lock()
	t, ok := k.tools[tool]
	k.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoTool, tool)
	}
	k.toolCalls.Inc()

	if t.Latency >= k.offloadThreshold {
		// Offload is asynchronous DMA overlapped with the wait; only the
		// restore on the next Pred costs the thread time.
		for _, f := range c.tracked {
			if !f.Removed() {
				// Best effort: host pressure just keeps pages on GPU.
				n, _ := f.Offload()
				k.kvd.NoteToolOffload(f, n)
			}
		}
	}

	tstart := k.clk.Now()
	k.gauge(stateRunning, stateIOWait)
	err := k.clk.Sleep(t.Latency)
	k.gauge(stateIOWait, stateRunning)
	if err != nil {
		return "", err
	}
	k.tracer.Span(trace.Event{
		At: tstart, Dur: k.clk.Now() - tstart, PID: c.p.pid, TID: c.tid,
		Kind: trace.KindTool, Detail: tool,
	})
	if t.Fn == nil {
		return "", nil
	}
	return t.Fn(args)
}

// --- IPC ---

// Send delivers a message to another process's mailbox.
func (c *Ctx) Send(pid int, payload string) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	target, err := c.p.k.Process(pid)
	if err != nil {
		return err
	}
	c.p.k.ipcMessages.Inc()
	target.mailbox.Put(Message{From: c.p.pid, Payload: payload})
	return nil
}

// Recv parks until a message arrives in this process's mailbox.
func (c *Ctx) Recv() (Message, error) {
	if err := c.p.checkLive(); err != nil {
		return Message{}, err
	}
	return c.p.mailbox.Get()
}

// TryRecv returns a queued message without blocking.
func (c *Ctx) TryRecv() (Message, bool) {
	return c.p.mailbox.TryGet()
}
