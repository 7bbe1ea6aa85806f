// Package kvd implements the Symphony kernel's KV memory daemon: the
// policy half of memory pressure handling that KVFS (mechanism only,
// paper §4.2–4.3) deliberately leaves out.
//
// KVFS gives programs Offload/Restore between the GPU and host tiers but
// ships no eviction: a busy multi-tenant deployment that exhausts GPU
// pages simply fails allocations with ErrNoSpace. The daemon closes that
// gap inside the kernel so every workload — not just programs that carry
// their own retry loops — survives oversubscription:
//
//   - it tracks the KV files processes create, with recency, frequency,
//     and model.CostModel-derived restore/recompute estimates per file;
//   - when GPU usage crosses a high-water mark it offloads cold, unlocked,
//     un-pinned files to the host tier under a pluggable policy (lru, lfu,
//     or cost-aware) until usage falls to the low-water mark; with a disk
//     tier attached, host usage crossing its own high-water mark spills
//     cold host files down to disk the same way — one demotion loop and
//     one candidate builder serve both tiers;
//   - offloaded files are restored transparently by the next pred on them
//     (the kernel already pays the PCIe time there), and the daemon keeps
//     the restore ledger the pressure experiments report, attributing each
//     restore to the eviction policy, a self-preemption swap, or the
//     kernel's tool-wait offload;
//   - under sustained pressure it cooperatively preempts the longest-idle
//     process: that process's next pred parks briefly (instead of the
//     kernel failing anyone's allocation), shedding demand while hot
//     processes keep the GPU busy.
//
// The daemon runs inline on kernel allocation paths rather than as a
// polling actor: a periodic timer would keep the virtual clock from ever
// quiescing, and allocation time is exactly when pressure changes. Safety
// invariants: a file that is advisory-locked, pinned by an in-flight
// pred, or merely opened by another program (untracked) is never
// offloaded.
package kvd

import (
	"sort"
	"sync"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
)

// Config assembles a daemon. The zero value is disabled.
type Config struct {
	// Policy names the eviction policy (see PolicyNames). Empty or "none"
	// disables the daemon entirely: allocation failures surface to
	// programs as before.
	Policy string
	// HighWater is the GPU page usage fraction that triggers reclaim
	// (default 0.90).
	HighWater float64
	// LowWater is the usage fraction reclaim drives down to (default
	// HighWater − 0.15).
	LowWater float64
	// AdmitHighWater is the usage fraction above which the batch
	// scheduler's admission gate defers each pred ahead of its KV
	// allocation (default 0.95). The gate itself lives in internal/sched
	// (Scheduler.Admit); the kernel wires it to Daemon.Pressure.
	AdmitHighWater float64
	// DiskHighWater is the *host* page usage fraction that triggers
	// spilling cold host-resident files down to the disk tier (default
	// 0.85). Spilling needs a disk tier: it is inert until AttachDisk.
	DiskHighWater float64
	// DiskLowWater is the host usage fraction spilling drives down to
	// (default 0.60).
	DiskLowWater float64
}

// Enabled reports whether the configuration selects an active daemon.
func (c Config) Enabled() bool { return c.Policy != "" && c.Policy != "none" }

// withDefaults fills unset watermarks.
func (c Config) withDefaults() Config {
	if c.HighWater <= 0 || c.HighWater > 1 {
		c.HighWater = 0.90
	}
	if c.LowWater <= 0 || c.LowWater >= c.HighWater {
		c.LowWater = c.HighWater - 0.15
		if c.LowWater < 0 {
			c.LowWater = 0
		}
	}
	if c.AdmitHighWater <= 0 || c.AdmitHighWater > 1 {
		c.AdmitHighWater = 0.95
	}
	if c.DiskHighWater <= 0 || c.DiskHighWater > 1 {
		c.DiskHighWater = 0.85
	}
	if c.DiskLowWater <= 0 || c.DiskLowWater >= c.DiskHighWater {
		c.DiskLowWater = 0.60
		if c.DiskLowWater >= c.DiskHighWater {
			c.DiskLowWater = c.DiskHighWater / 2
		}
	}
	return c
}

// Event describes a daemon action on one tracked file, delivered to the
// owning process through the notify callback registered at Track time
// (the kernel republishes it as a kv_pressure process event).
type Event struct {
	// Phase is "offload", "restore", "spill" (host→disk demotion),
	// "spill-rollback" (a spill undone because its snapshot commit
	// failed), "load" (disk→GPU re-prefill), or "park".
	Phase string
	// Tokens is the number of KV tokens moved (zero for park).
	Tokens int
	// Policy is the active eviction policy name.
	Policy string
}

// Notify receives daemon events for one tracked file. Callbacks must not
// block and must not call back into the daemon.
type Notify func(Event)

// Stats is a snapshot of daemon counters. The Daemon counts straight
// into one; the json tags are the /v1/stats wire schema.
type Stats struct {
	Policy    string  `json:"policy"`
	HighWater float64 `json:"high_water"`
	LowWater  float64 `json:"low_water"`
	// Pressure is the instantaneous GPU page usage fraction.
	Pressure float64 `json:"pressure"`
	// Tracked is the number of live files under daemon management.
	Tracked int `json:"tracked_files"`
	// Reclaims counts reclaim passes that offloaded at least one file.
	Reclaims int64 `json:"reclaims"`
	// Offloads counts files offloaded; OffloadedTokens the KV tokens
	// moved GPU→host.
	Offloads        int64 `json:"offloads"`
	OffloadedTokens int64 `json:"offloaded_tokens"`
	// Restores counts policy-evicted files transparently restored on a
	// later access; RestoredTokens the tokens moved host→GPU, and
	// RestoredCost the total PCIe time those restores charged — the
	// price of the eviction policy picking files that turned out to
	// still be needed, the figure of merit policies compete on.
	Restores       int64         `json:"restores"`
	RestoredTokens int64         `json:"restored_tokens"`
	RestoredCost   time.Duration `json:"restored_cost_ns"`
	// SwapRestores / SwapRestoredTokens / SwapRestoredCost are the same
	// ledger for self-preemption swaps (a stalled pred giving back its
	// own residency): that cost is paid to break allocation standoffs
	// and is not the eviction policy's doing.
	SwapRestores       int64         `json:"swap_restores"`
	SwapRestoredTokens int64         `json:"swap_restored_tokens"`
	SwapRestoredCost   time.Duration `json:"swap_restored_cost_ns"`
	// ToolOffloads / ToolOffloadedTokens count the kernel's offloads of a
	// thread's files across a long tool wait, and ToolRestores /
	// ToolRestoredTokens / ToolRestoredCost the same restore ledger for
	// them. The kernel, not the eviction policy, moves those files, so
	// they stay out of Offloads and Restores.
	ToolOffloads        int64         `json:"tool_offloads"`
	ToolOffloadedTokens int64         `json:"tool_offloaded_tokens"`
	ToolRestores        int64         `json:"tool_restores"`
	ToolRestoredTokens  int64         `json:"tool_restored_tokens"`
	ToolRestoredCost    time.Duration `json:"tool_restored_cost_ns"`
	// Preemptions counts cooperative preemption episodes: parks of the
	// longest-idle process plus self-preemptions (a stalled pred swapping
	// out its own residency to break an allocation standoff).
	Preemptions int64 `json:"preemptions"`
	// Migrations / MigratedTokens / MigratedCost are the cross-replica
	// ledger: files the kernel's migration engine copied between replicas
	// over the interconnect (source pages freed after the copy), the KV
	// tokens moved, and the fabric time charged for them.
	Migrations     int64         `json:"migrations"`
	MigratedTokens int64         `json:"migrated_tokens"`
	MigratedCost   time.Duration `json:"migrated_cost_ns"`
	// Spills counts files demoted host→disk; SpilledTokens the KV tokens
	// moved, net of rollbacks. Spills are free of tensor-transfer time by
	// design: the snapshot store writes only token metadata, and the
	// write is billed when the store commits. SpillRollbacks counts
	// spills undone because the snapshot commit failed: their pages moved
	// back to host and were subtracted from SpilledTokens, so the ledger
	// never counts pages as disk-resident without a durable copy.
	Spills         int64 `json:"spills"`
	SpilledTokens  int64 `json:"spilled_tokens"`
	SpillRollbacks int64 `json:"spill_rollbacks"`
	// DiskLoads / DiskLoadedTokens / DiskLoadCost record disk→GPU
	// re-prefills from the snapshot store and the NVMe+PCIe time charged
	// for them; DiskRecomputes / DiskRecomputedTokens count the times the
	// kernel instead chose to recompute a disk-resident prefix because
	// prefill was estimated cheaper than the load.
	DiskLoads            int64         `json:"disk_loads"`
	DiskLoadedTokens     int64         `json:"disk_loaded_tokens"`
	DiskLoadCost         time.Duration `json:"disk_load_cost_ns"`
	DiskRecomputes       int64         `json:"disk_recomputes"`
	DiskRecomputedTokens int64         `json:"disk_recomputed_tokens"`
}

type entry struct {
	f      *kvfs.File
	seq    int64
	pid    int
	notify Notify

	lastAccess time.Duration
	accesses   int64
	pins       int
	// offloadReason is "policy", "swap" or "tool" while the file is off
	// the GPU and not yet seen restored, so each restore is attributed to
	// the decision that caused it; "" otherwise.
	offloadReason string
}

// Daemon is a KV memory daemon instance. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so a kernel without a
// daemon pays only nil checks.
type Daemon struct {
	clk    *simclock.Clock
	fs     *kvfs.FS
	cost   model.CostModel
	policy Policy
	cfg    Config

	mu      sync.Mutex
	disk    *kvfs.DiskTier // nil until AttachDisk
	seq     int64
	entries map[*kvfs.File]*entry
	pidLast map[int]time.Duration // latest access per live process
	sinceGC int                   // Tracks since the last entry sweep

	// st holds the counters; Stats fills in the live gauges.
	st Stats
}

// New assembles a daemon over fs, costing restores and recomputes with
// the default model's cost model. A disabled config returns (nil, nil):
// the nil daemon is a valid no-op.
func New(clk *simclock.Clock, fs *kvfs.FS, cost model.CostModel, cfg Config) (*Daemon, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Daemon{
		clk:     clk,
		fs:      fs,
		cost:    cost,
		policy:  pol,
		cfg:     cfg,
		entries: make(map[*kvfs.File]*entry),
		pidLast: make(map[int]time.Duration),
		st:      Stats{Policy: pol.Name(), HighWater: cfg.HighWater, LowWater: cfg.LowWater},
	}, nil
}

// Enabled reports whether the daemon is active.
func (d *Daemon) Enabled() bool { return d != nil }

// PolicyName reports the active eviction policy name, or "none".
func (d *Daemon) PolicyName() string {
	if d == nil {
		return "none"
	}
	return d.policy.Name()
}

// Config returns the daemon's effective configuration.
func (d *Daemon) Config() Config {
	if d == nil {
		return Config{}
	}
	return d.cfg
}

// AttachDisk gives the daemon a disk tier to demote into, enabling the
// host-watermark spill path. Call once at kernel assembly, before any
// traffic.
func (d *Daemon) AttachDisk(dt *kvfs.DiskTier) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.disk = dt
	d.mu.Unlock()
	// Registered outside d.mu: the hook itself takes d.mu when a failed
	// commit fires it.
	dt.SetSpillRollback(d.rollbackSpill)
}

// rollbackSpill is the disk tier's commit-failure hook: tokens of f's
// pages moved back host-ward because the snapshot generation that would
// have made them durable never landed. The spill ledger reverses and the
// owning process hears a "spill-rollback" kv_pressure event.
func (d *Daemon) rollbackSpill(f *kvfs.File, tokens int) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	d.st.SpillRollbacks++
	d.st.SpilledTokens -= int64(tokens)
	fire := noEvent
	if e, ok := d.entries[f]; ok {
		fire = d.eventLocked(e, "spill-rollback", tokens)
	}
	d.mu.Unlock()
	fire()
}

// NoteDiskLoad attributes a disk→GPU re-prefill performed by the kernel
// to the daemon ledger and notifies the owning process.
func (d *Daemon) NoteDiskLoad(f *kvfs.File, tokens int, cost time.Duration) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	d.st.DiskLoads++
	d.st.DiskLoadedTokens += int64(tokens)
	d.st.DiskLoadCost += cost
	fire := noEvent
	if e, ok := d.entries[f]; ok {
		e.offloadReason = ""
		fire = d.eventLocked(e, "load", tokens)
	}
	d.mu.Unlock()
	fire()
}

// NoteDiskRecompute records that the kernel chose to recompute a
// disk-resident prefix (prefill estimated cheaper than the NVMe load).
func (d *Daemon) NoteDiskRecompute(f *kvfs.File, tokens int) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st.DiskRecomputes++
	d.st.DiskRecomputedTokens += int64(tokens)
	if e, ok := d.entries[f]; ok {
		e.offloadReason = ""
	}
}

// Track places a process-private file under daemon management. Files the
// daemon does not know about (e.g. shared files another program opened)
// are never offloaded.
func (d *Daemon) Track(f *kvfs.File, pid int, notify Notify) {
	if d == nil || f == nil {
		return
	}
	now := d.clk.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[f]; ok {
		return
	}
	// Amortized sweep: reclaim and park paths only garbage-collect under
	// pressure, so a server that never crosses the high-water mark must
	// still shed entries (and their notify closures) for removed files.
	if d.sinceGC++; d.sinceGC >= 64 {
		d.sinceGC = 0
		d.gcPidsLocked()
	}
	d.seq++
	d.entries[f] = &entry{f: f, seq: d.seq, pid: pid, notify: notify, lastAccess: now, accesses: 1}
	if last, ok := d.pidLast[pid]; !ok || now > last {
		d.pidLast[pid] = now
	}
}

// Touch records an access to a tracked file (pred, fork source, …),
// refreshing the recency and frequency signals policies rank on.
func (d *Daemon) Touch(f *kvfs.File) {
	if d == nil {
		return
	}
	now := d.clk.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[f]
	if !ok {
		return
	}
	e.lastAccess = now
	e.accesses++
	if e.pid == 0 {
		return // orphan of a finished process: no park bookkeeping
	}
	if last, ok := d.pidLast[e.pid]; !ok || now > last {
		d.pidLast[e.pid] = now
	}
}

// ReleaseProcess detaches a finished process from the daemon: its
// entries drop their notify closures (releasing the Process and its
// event ring) and leave the cooperative-park bookkeeping, so one dead
// process can neither be retained in memory nor shield every live
// process from parking. Files the process leaked (never Removed) stay
// tracked as orphans — cold garbage the eviction policies reap first.
func (d *Daemon) ReleaseProcess(pid int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for f, e := range d.entries {
		if e.pid != pid {
			continue
		}
		if f.Removed() {
			delete(d.entries, f)
			continue
		}
		e.pid = 0
		e.notify = nil
	}
	delete(d.pidLast, pid)
}

// Pin marks a file in-flight (a pred is using it); pinned files are
// never offloaded. Pins nest.
func (d *Daemon) Pin(f *kvfs.File) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[f]; ok {
		e.pins++
	}
}

// Unpin releases a Pin.
func (d *Daemon) Unpin(f *kvfs.File) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[f]; ok && e.pins > 0 {
		e.pins--
	}
}

// Pins reports the file's current in-flight pin count (0 for files the
// daemon does not track). The migration engine uses it to refuse moving
// a file another pred is using right now.
func (d *Daemon) Pins(f *kvfs.File) int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[f]; ok {
		return e.pins
	}
	return 0
}

// NoteMigrate records a cross-replica migration in the daemon ledger:
// tokens of KV copied over the interconnect in cost fabric time, with
// the source replica's pages freed once the copy landed. The owning
// process hears about it through the kernel's kv_migrate event, not the
// daemon's notify channel.
func (d *Daemon) NoteMigrate(f *kvfs.File, tokens int, cost time.Duration) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st.Migrations++
	d.st.MigratedTokens += int64(tokens)
	d.st.MigratedCost += cost
	if e, ok := d.entries[f]; ok {
		// A migrated file arrives hot on its new replica.
		e.lastAccess = d.clk.Now()
	}
}

// NoteToolOffload records that the kernel offloaded tokens of f across a
// long tool wait. Unless the policy or a swap already moved the file (its
// restore stays theirs), the later restore is billed to the tool ledger.
// The owner hears no event for either leg: the daemon did not decide the
// move.
func (d *Daemon) NoteToolOffload(f *kvfs.File, tokens int) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st.ToolOffloads++
	d.st.ToolOffloadedTokens += int64(tokens)
	if e, ok := d.entries[f]; ok && e.offloadReason == "" {
		e.offloadReason = "tool"
	}
}

// NoteRestore attributes a transparent restore performed by the kernel
// (pred found the file off-GPU) to the daemon's ledger and notifies the
// owning process of restores the daemon's own offloads caused.
func (d *Daemon) NoteRestore(f *kvfs.File, tokens int, cost time.Duration) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	e, ok := d.entries[f]
	fire := noEvent
	if ok && e.offloadReason != "" {
		switch e.offloadReason {
		case "swap":
			d.st.SwapRestores++
			d.st.SwapRestoredTokens += int64(tokens)
			d.st.SwapRestoredCost += cost
		case "tool":
			d.st.ToolRestores++
			d.st.ToolRestoredTokens += int64(tokens)
			d.st.ToolRestoredCost += cost
		default:
			d.st.Restores++
			d.st.RestoredTokens += int64(tokens)
			d.st.RestoredCost += cost
		}
		if e.offloadReason != "tool" {
			fire = d.eventLocked(e, "restore", tokens)
		}
		e.offloadReason = ""
	}
	d.mu.Unlock()
	fire()
}

// Pressure reports the instantaneous GPU page usage fraction.
func (d *Daemon) Pressure() float64 {
	if d == nil {
		return 0
	}
	st := d.fs.Stats()
	if st.GPUPageCap <= 0 {
		return 0
	}
	return float64(st.GPUPages) / float64(st.GPUPageCap)
}

// MaybeReclaim checks the high-water mark and, when crossed, offloads
// cold files until usage falls to the low-water mark. It returns the
// tokens freed. The kernel calls it on allocation paths (every pred), so
// pressure is handled where it is created.
func (d *Daemon) MaybeReclaim() int {
	if d == nil {
		return 0
	}
	over, high := d.excess(kvfs.GPU)
	if !high {
		return 0
	}
	freed := d.demote(kvfs.GPU, over)
	d.maybeSpillHost()
	return freed
}

// Reclaim frees at least needTokens of GPU KV space if it can, on top of
// driving usage to the low-water mark when above it. The kernel calls it
// when an allocation fails outright (ErrNoSpace) before retrying.
func (d *Daemon) Reclaim(needTokens int) int {
	if d == nil {
		return 0
	}
	if over, _ := d.excess(kvfs.GPU); over > needTokens {
		needTokens = over
	}
	freed := d.demote(kvfs.GPU, needTokens)
	d.maybeSpillHost()
	return freed
}

// maybeSpillHost checks the host-tier watermark and, when crossed and a
// disk tier is attached, spills cold host-resident files down to disk
// until host usage falls to DiskLowWater. GPU→host offloads are what
// grow the host tier, so reclaim and preemption paths call this right
// after them: demotion cascades one level at a time, cost-aware because
// the same policy that picked the coldest GPU files picks the coldest
// host files.
func (d *Daemon) maybeSpillHost() {
	if over, high := d.excess(kvfs.Host); high {
		d.demote(kvfs.Host, over)
	}
}

// excess reports the tokens tier holds above its low-water mark (negative
// when below it) and whether its usage has reached the high-water mark:
// HighWater/LowWater for the GPU, DiskHighWater/DiskLowWater for the
// host. A tier without capacity reports (0, false).
func (d *Daemon) excess(tier kvfs.Tier) (tokens int, high bool) {
	st := d.fs.Stats()
	pages, capacity, hi, lo := st.GPUPages, st.GPUPageCap, d.cfg.HighWater, d.cfg.LowWater
	if tier == kvfs.Host {
		pages, capacity, hi, lo = st.HostPages, st.HostPageCap, d.cfg.DiskHighWater, d.cfg.DiskLowWater
	}
	if capacity <= 0 {
		return 0, false
	}
	return (pages - int(lo*float64(capacity))) * st.PageTokens, float64(pages) >= hi*float64(capacity)
}

// demote is the one demotion loop: it moves candidates off tier (GPU→host
// offload or host→disk spill) in policy order until freed >= needTokens
// or candidates run out, then fires the owner notifications. Both legs
// are safe on any allocation path: an offload is DMA the restoring pred
// pays for, and a spill is metadata-only (the store write is billed at
// the next commit).
func (d *Daemon) demote(tier kvfs.Tier, needTokens int) int {
	if needTokens <= 0 {
		return 0
	}
	now := d.clk.Now()
	d.mu.Lock()
	if tier == kvfs.Host && d.disk == nil {
		d.mu.Unlock()
		return 0
	}
	cands, ents := d.candidatesLocked(tier)
	order := d.policy.Rank(now, cands)
	freed := 0
	var fired []func()
	for _, i := range order {
		if freed >= needTokens {
			break
		}
		n, fire := d.demoteFileLocked(ents[i], tier, "policy")
		if n > 0 {
			freed += n
			fired = append(fired, fire)
		}
	}
	if freed > 0 && tier == kvfs.GPU {
		d.st.Reclaims++
	}
	d.mu.Unlock()
	for _, fn := range fired {
		fn()
	}
	return freed
}

// demoteFileLocked moves e's file one tier down from tier and counts it in
// the ledger: a GPU→host offload attributed to reason ("policy" or
// "swap"), or a host→disk spill. It returns the tokens moved and the
// owner notification to fire once d.mu is released. Caller holds d.mu.
func (d *Daemon) demoteFileLocked(e *entry, tier kvfs.Tier, reason string) (int, func()) {
	if tier == kvfs.Host {
		n, err := d.disk.Spill(e.f)
		if err != nil || n == 0 {
			return 0, noEvent // ErrNoDisk or nothing demotable: try the next one
		}
		d.st.Spills++
		d.st.SpilledTokens += int64(n)
		return n, d.eventLocked(e, "spill", n)
	}
	n, _ := e.f.Offload()
	if n == 0 {
		return 0, noEvent
	}
	e.offloadReason = reason
	d.st.Offloads++
	d.st.OffloadedTokens += int64(n)
	return n, d.eventLocked(e, "offload", n)
}

// noEvent is the notification of an entry nobody listens to.
func noEvent() {}

// eventLocked returns a call delivering a phase event for tokens to e's
// owner (noEvent if the entry has no notify callback), to be made once
// d.mu is released: callbacks must not run under it. Caller holds d.mu.
func (d *Daemon) eventLocked(e *entry, phase string, tokens int) func() {
	if e.notify == nil {
		return noEvent
	}
	notify, ev := e.notify, Event{Phase: phase, Tokens: tokens, Policy: d.policy.Name()}
	return func() { notify(ev) }
}

// candidatesLocked snapshots the files demotable off tier: tracked, not
// removed, not advisory-locked, not pinned, with tokens on tier to move.
// Each candidate's RestoreCost is the price of bringing those tokens
// back from the tier below — PCIe for host, NVMe read plus PCIe for disk
// — so cost-aware policies weigh the deeper demotion correctly. It also
// garbage-collects entries for removed files. The snapshot is sorted by
// tracking seq so the policy ranks an identical slice on every run
// regardless of map iteration order (rankBy is stable, so the input
// order is the tie-break of last resort). Caller holds d.mu.
func (d *Daemon) candidatesLocked(tier kvfs.Tier) ([]FileInfo, []*entry) {
	var infos []FileInfo
	var ents []*entry
	for f, e := range d.entries {
		if f.Removed() {
			delete(d.entries, f)
			continue
		}
		if e.pins > 0 || f.LockedBy() != "" {
			continue
		}
		gpu, host, _ := f.ResidentTokens()
		n, restore := gpu, d.cost.TransferTime(gpu)
		if tier == kvfs.Host {
			n, restore = host, d.cost.DiskLoadTime(host)
		}
		if n == 0 {
			continue
		}
		infos = append(infos, FileInfo{
			File:          f,
			Seq:           e.seq,
			PID:           e.pid,
			LastAccess:    e.lastAccess,
			Accesses:      e.accesses,
			Tokens:        n,
			RestoreCost:   restore,
			RecomputeCost: d.cost.KernelOverhead + d.cost.PerSequence + time.Duration(f.Len())*d.cost.PerToken,
		})
		ents = append(ents, e)
	}
	// seq is unique per entry, so sorting the parallel slices
	// independently keeps infos[i] and ents[i] paired.
	sort.Slice(infos, func(i, j int) bool { return infos[i].Seq < infos[j].Seq })
	sort.Slice(ents, func(i, j int) bool { return ents[i].seq < ents[j].seq })
	return infos, ents
}

// Preempt offloads f immediately on behalf of its own stalled pred
// (vLLM-style swap-out: a call that cannot get GPU pages gives back its
// residency, waits, and restores on retry), unless another in-flight
// call has it pinned or it is advisory-locked. It returns the tokens
// moved and counts one preemption.
func (d *Daemon) Preempt(f *kvfs.File) int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	e, ok := d.entries[f]
	if !ok || e.pins > 0 || f.Removed() || f.LockedBy() != "" {
		d.mu.Unlock()
		return 0
	}
	n, fire := d.demoteFileLocked(e, kvfs.GPU, "swap")
	if n > 0 {
		d.st.Preemptions++
	}
	d.mu.Unlock()
	fire()
	if n > 0 {
		d.maybeSpillHost()
	}
	return n
}

// ShouldPark reports whether the calling process should cooperatively
// yield before its next pred: GPU pressure is at or above the high-water
// mark and pid is the longest-idle of the (at least two) live tracked
// processes. Parking the coldest process sheds demand under pressure
// without failing anyone — its pred proceeds after a bounded wait and
// transparently restores whatever was offloaded meanwhile.
func (d *Daemon) ShouldPark(pid int) bool {
	if d == nil {
		return false
	}
	if d.Pressure() < d.cfg.HighWater {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gcPidsLocked()
	if len(d.pidLast) < 2 {
		return false
	}
	mine, ok := d.pidLast[pid]
	if !ok {
		return false
	}
	for other, last := range d.pidLast {
		if other == pid {
			continue
		}
		if last < mine || (last == mine && other < pid) {
			return false // someone colder exists
		}
	}
	return true
}

// NotePark counts one cooperative preemption episode and notifies the
// parked process's subscribers through any tracked file of that process.
func (d *Daemon) NotePark(pid int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.st.Preemptions++
	var cands []*entry
	for _, e := range d.entries {
		if e.pid == pid && e.notify != nil {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	fire := noEvent
	if len(cands) > 0 {
		fire = d.eventLocked(cands[0], "park", 0)
	}
	d.mu.Unlock()
	fire()
}

// gcPidsLocked drops processes whose tracked files are all gone. Caller
// holds d.mu.
func (d *Daemon) gcPidsLocked() {
	live := make(map[int]bool, len(d.pidLast))
	for f, e := range d.entries {
		if f.Removed() {
			delete(d.entries, f)
			continue
		}
		if e.pid != 0 {
			live[e.pid] = true
		}
	}
	for pid := range d.pidLast {
		if !live[pid] {
			delete(d.pidLast, pid)
		}
	}
}

// Stats returns a snapshot of counters.
func (d *Daemon) Stats() Stats {
	if d == nil {
		return Stats{Policy: "none"}
	}
	pressure := d.Pressure()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gcPidsLocked() // Tracked counts live files, not removed ones
	st := d.st
	st.Pressure = pressure
	st.Tracked = len(d.entries)
	return st
}
