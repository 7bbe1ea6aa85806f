package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// ChaosConfig parameterizes the fault-injection sweep: the same seeded
// skewed shared-prefix workload (the migrate experiment's shape, plus a
// periodic checkpointer into the durable disk tier) runs once fault-free
// and once per fault plan, with internal/chaos injecting failures at the
// three I/O seams — interconnect transfers, the disk VFS, and replica
// executors. The cells measure what recovery costs, and the sweep's
// acceptance bar is what recovery must never cost: no job is lost or
// duplicated, no token is double-billed, and the scheduler's execution
// ledger stays exact (ExecutedTokens == Tokens + LostTokens).
type ChaosConfig struct {
	// Replicas is the GPU replica count; the skewed families all home to
	// replica 0, so migrations (and their injected failures) happen.
	Replicas int
	// Cells lists the fault plans to run (see armChaos): "none",
	// "interconnect", "disk", "replica-crash", plus the fault-free
	// "prefix-cache" variant that reruns the workload on a kernel with the
	// radix prefix cache enabled and clients submitting full flat prompts,
	// auditing that cache-served tokens are billed as saved, not executed.
	Cells []string
	// Families, ClientsPerFamily, RequestsPerClient, PrefixTokens,
	// SuffixTokens, DecodeTokens shape the closed-loop fork workload
	// exactly as in MigrateConfig.
	Families          int
	ClientsPerFamily  int
	RequestsPerClient int
	PrefixTokens      int
	SuffixTokens      int
	DecodeTokens      int
	// Checkpoints is how many periodic CheckpointKV rounds the background
	// checkpointer runs during the client phase, CheckpointEvery apart —
	// the disk cell's fault plan targets these commits.
	Checkpoints     int
	CheckpointEvery time.Duration
	// DiskGB sizes the durable disk tier in GiB.
	DiskGB float64
	// InterconnectGbps is the replica fabric bandwidth; zero means the
	// netsim default.
	InterconnectGbps float64
	// Seed offsets the deterministic workload and injector streams (see
	// seedBase); 0 and 1 both select the recorded baseline.
	Seed int64
}

// DefaultChaosCells lists the fault plans in presentation order.
var DefaultChaosCells = []string{"none", "interconnect", "disk", "replica-crash"}

// DefaultChaos returns the sweep used by symphony-bench -exp chaos.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Replicas:          4,
		Cells:             DefaultChaosCells,
		Families:          8,
		ClientsPerFamily:  2,
		RequestsPerClient: 3,
		PrefixTokens:      384,
		SuffixTokens:      160,
		DecodeTokens:      6,
		Checkpoints:       4,
		CheckpointEvery:   10 * time.Millisecond,
		DiskGB:            16,
		Seed:              1,
	}
}

// QuickChaos returns a reduced sweep for -quick and the test suite.
func QuickChaos() ChaosConfig {
	return ChaosConfig{
		Replicas:          4,
		Cells:             DefaultChaosCells,
		Families:          6,
		ClientsPerFamily:  2,
		RequestsPerClient: 2,
		PrefixTokens:      256,
		SuffixTokens:      96,
		DecodeTokens:      4,
		Checkpoints:       3,
		CheckpointEvery:   7 * time.Millisecond,
		DiskGB:            16,
		Seed:              1,
	}
}

// ChaosPoint is one fault plan's measurement on the seeded workload.
type ChaosPoint struct {
	// Mode names the fault plan ("none" is the fault-free baseline).
	Mode     string
	Replicas int
	Families int
	// Jobs is the job population (Families × clients × requests);
	// Completed, Lost, and Duplicated count completions per job id — the
	// acceptance bar is Completed == Jobs and Lost == Duplicated == 0
	// under every fault plan.
	Jobs       int
	Completed  int
	Lost       int
	Duplicated int
	// ChargedTokens is what the billing ledger collected across users;
	// ExpectedTokens is the workload's exact bill. BillingExact requires
	// them equal: crash-requeued work re-executes, it never re-charges.
	ChargedTokens  int64
	ExpectedTokens int64
	BillingExact   bool
	// TokensExact asserts the scheduler's execution ledger:
	// ExecutedTokens == Tokens + LostTokens after all calls complete.
	TokensExact bool
	// Faults is how many injector hits fired a rule in this cell.
	Faults int
	// Scheduler crash ledger.
	Crashes    int64
	Requeued   int64
	LostTokens int64
	// Migration engine ledger (TransferAborts counts interconnect
	// failures rolled back with their reservations released).
	Migrations     int64
	TransferAborts int64
	// Checkpointer ledger: successful rounds vs failed commits. The disk
	// fault plan turns rounds into CommitErrors; everything else keeps
	// them zero.
	Checkpoints  int
	CommitErrors int
	// SpillRollbacks counts failed-commit spill reversals in the KV
	// daemon's ledger.
	SpillRollbacks int64
	// HitTokens is the prefix-cache cell's cache-served prompt volume
	// (omitted everywhere else, keeping recorded artifacts stable). The
	// billing invariant covers it: hit tokens are charged to the user but
	// never executed, and both ledgers must still balance exactly.
	HitTokens int64 `json:",omitempty"`
	// Recovery: after the run, the machine power-fails and a fresh
	// kernel recovers the newest durable snapshot. RecoverOK is false
	// when recovery had to fall back past a corrupt generation.
	RecoveredFiles  int
	RecoveredTokens int
	RecoverOK       bool
	// Per-request latency distribution; P99Inflation is vs the "none"
	// cell (1 when absent).
	P50          time.Duration
	P99          time.Duration
	P99Inflation float64
	// Makespan covers the client phase; Throughput is virtual requests
	// per second over it — the benchgate figure of merit.
	Makespan   time.Duration
	Throughput float64
}

// RunChaos sweeps the fault plans over the identical seeded workload.
func RunChaos(cfg ChaosConfig) []ChaosPoint {
	var out []ChaosPoint
	for _, cell := range cfg.Cells {
		out = append(out, runChaosCell(cfg, cell))
	}
	var base time.Duration
	for _, p := range out {
		if p.Mode == "none" {
			base = p.P99
			break
		}
	}
	for i := range out {
		if base > 0 && out[i].P99 > 0 {
			out[i].P99Inflation = float64(out[i].P99) / float64(base)
		} else {
			out[i].P99Inflation = 1
		}
	}
	return out
}

// chaosFS sizes the KV file system so capacity is not the variable under
// study (the faults are).
func chaosFS() kvfs.Config {
	fs := fig3FS(64<<30, model.A100Llama13B().KVBytesPerToken)
	fs.HostBytes = 64 << 30
	return fs
}

// armChaos installs one cell's fault plan. now is the virtual time the
// client phase starts (the clean seed + checkpoint prologue is never
// faulted), so window triggers are phase-relative and deterministic.
func armChaos(inj *chaos.Injector, mode string, now time.Duration) {
	ms := func(n int) time.Duration { return now + time.Duration(n)*time.Millisecond }
	switch mode {
	case "none":
		// Fault-free baseline.
	case "interconnect":
		inj.Arm(
			// The first migration transfer fails outright, later ones fail
			// or stall probabilistically, and a partition window rejects
			// every transfer for 8ms. Failed transfers must roll back:
			// reservations released, the prefix still served at its old
			// home, and the engine free to retry after the window.
			chaos.Rule{Point: "ic.transfer", Nth: 1, Err: true},
			chaos.Rule{Point: "ic.transfer", Prob: 0.25, Times: -1, Err: true},
			chaos.Rule{Point: "ic.transfer", Prob: 0.25, Times: -1, Stall: 2 * time.Millisecond},
			chaos.Rule{Point: "ic.transfer", At: ms(10), Until: ms(18), Times: -1, Err: true},
		)
	case "disk":
		inj.Arm(
			// One fault per checkpoint round (see CheckpointEvery): a sync
			// error, then a lying sync plus a failed directory flush, then
			// a torn write with a power failure mid-publish. Every round
			// fails, so recovery must land on the clean prologue snapshot.
			chaos.Rule{Point: "file.sync", At: ms(5), Err: true},
			chaos.Rule{Point: "file.sync", At: ms(12), Lie: true},
			chaos.Rule{Point: "fs.syncdir", At: ms(12), Err: true},
			chaos.Rule{Point: "file.write", At: ms(19), Torn: true},
			chaos.Rule{Point: "file.write", At: ms(19), Crash: true},
		)
	case "replica-crash":
		inj.Arm(
			// Two executors die at iteration boundaries mid-phase: the hot
			// home replica first, a bystander later. In-flight calls are
			// requeued to surviving replicas with their progress discarded
			// but their billing untouched.
			chaos.Rule{Point: "replica.0.crash", At: ms(4), Crash: true},
			chaos.Rule{Point: "replica.2.crash", At: ms(12), Crash: true},
		)
	case "prefix-cache":
		// Fault-free, but the kernel runs with the radix prefix cache on
		// and clients submit full flat prompts (see runChaosCell): the cell
		// audits the billing and execution ledgers when most prefill tokens
		// are served from cache instead of computed.
	default:
		panic(fmt.Sprintf("experiments: unknown chaos cell %q", mode))
	}
}

// runChaosCell measures one fault plan end to end: seed + clean
// checkpoint, arm, faulted client phase with a background checkpointer,
// then power-fail and recover on a fresh kernel.
func runChaosCell(cfg ChaosConfig, mode string) ChaosPoint {
	prefix := mode == "prefix-cache"
	dispatcher, err := sched.NewDispatcher("cache-affinity-migrate")
	if err != nil {
		panic(err)
	}
	diskBytes := int64(cfg.DiskGB * float64(1<<30))
	clk := simclock.New()
	inj := chaos.New(clk, int64(seedBase(cfg.Seed))+97)
	vfs := kvstore.NewSimFS(nil, model.Llama13B().Cost)
	ffs := chaos.NewFaultFS(vfs, inj)
	ic := netsim.InterconnectFromGbps(clk, cfg.InterconnectGbps)
	hook := chaos.TransferFaultHook(inj, "")
	ic.SetFault(func(pages int, bytes int64) netsim.TransferFault {
		o := hook(pages, bytes)
		return netsim.TransferFault{Stall: o.Stall, Err: o.Err}
	})
	k := core.New(clk, core.Config{
		Models:       map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		FS:           chaosFS(),
		Policy:       sched.DefaultPoisson(),
		Replicas:     cfg.Replicas,
		Dispatcher:   dispatcher,
		Interconnect: ic,
		KV:           kvd.Config{Policy: "lru"},
		Disk:         core.DiskConfig{Bytes: diskBytes, FS: ffs},
		CrashCheck:   inj.CrashCheck(),
		Prefix:       core.PrefixConfig{Enabled: prefix, CacheAwareOrder: true},
	})

	jobs := cfg.Families * cfg.ClientsPerFamily * cfg.RequestsPerClient
	var (
		mu           sync.Mutex
		counts       = make([]int, jobs)
		completed    int
		lats         []time.Duration
		clientsStart time.Duration
		lastDone     time.Duration
		checkpoints  int
		commitErrors int
		runErr       error
	)
	noteErr := func(err error) {
		mu.Lock()
		if runErr == nil && err != nil {
			runErr = err
		}
		mu.Unlock()
	}
	drive(clk, func() {
		// Prologue (never faulted): seed every family's shared prefix —
		// all homed to replica 0 under static hashing — and land one clean
		// snapshot generation for recovery to fall back on.
		seed := k.Submit("admin", func(ctx *core.Ctx) error {
			for i := 0; i < cfg.Families; i++ {
				first := skewedFirstToken(cfg.Replicas, 0, 1_000_000+i*10_000)
				if err := seedFamily(ctx, fmt.Sprintf("fam-%d", i), first, cfg.PrefixTokens, seedBase(cfg.Seed)+1_000_000+i*10_000); err != nil {
					return err
				}
			}
			return nil
		})
		if err := seed.Wait(); err != nil {
			noteErr(err)
			return
		}
		if _, err := k.CheckpointKV(); err != nil {
			noteErr(fmt.Errorf("clean checkpoint: %w", err))
			return
		}

		clientsStart = clk.Now()
		armChaos(inj, mode, clientsStart)

		wg := clk.NewWaitGroup()
		// Background checkpointer: periodic best-effort snapshots of the
		// named prefixes while the clients run. The disk fault plan makes
		// these commits fail; that must never corrupt what is already
		// durable.
		wg.Add(1)
		clk.Go("checkpointer", func() {
			defer wg.Done()
			for i := 0; i < cfg.Checkpoints; i++ {
				clk.Sleep(cfg.CheckpointEvery)
				_, cerr := k.CheckpointKV()
				mu.Lock()
				if cerr != nil {
					commitErrors++
				} else {
					checkpoints++
				}
				mu.Unlock()
			}
		})

		// Closed-loop clients, identical across cells: fork the family
		// prefix, prefill a unique suffix, decode, drop the fork. Every
		// (fam, client, request) triple is one job; its completion count
		// feeds the lost/duplicated invariant.
		for fam := 0; fam < cfg.Families; fam++ {
			for c := 0; c < cfg.ClientsPerFamily; c++ {
				fam, c := fam, c
				wg.Add(1)
				p := k.Submit(fmt.Sprintf("fam%d-c%d", fam, c), func(ctx *core.Ctx) error {
					if err := ctx.Sleep(time.Duration(fam*cfg.ClientsPerFamily+c) * time.Millisecond); err != nil {
						return err
					}
					var parent *kvfs.File
					if !prefix {
						var err error
						parent, err = ctx.KvOpen(fmt.Sprintf("fam-%d", fam), false)
						if err != nil {
							return err
						}
					}
					for r := 0; r < cfg.RequestsPerClient; r++ {
						reqStart := ctx.Clock().Now()
						seed := seedBase(cfg.Seed) + 2_000_000 + fam*100_000 + c*10_000 + r*1_000
						var fork *kvfs.File
						var err error
						if prefix {
							// Flat-prompt variant: the full family preamble plus the
							// unique suffix lands in a fresh anonymous file, so the
							// radix cache (seeded by the prologue) serves the
							// preamble while the user is billed for every token.
							fork, err = ctx.KvAnon()
							if err != nil {
								return err
							}
							toks := make([]token.ID, cfg.PrefixTokens+cfg.SuffixTokens)
							pos := make([]int, len(toks))
							toks[0] = skewedFirstToken(cfg.Replicas, 0, 1_000_000+fam*10_000)
							fseed := seedBase(cfg.Seed) + 1_000_000 + fam*10_000
							for i := 1; i < cfg.PrefixTokens; i++ {
								toks[i] = token.ID(fseed + i)
							}
							for i := 0; i < cfg.SuffixTokens; i++ {
								toks[cfg.PrefixTokens+i] = token.ID(seed + i)
							}
							for i := range pos {
								pos[i] = i
							}
							if _, err := ctx.Pred(fork, toks, pos); err != nil {
								fork.Remove()
								return err
							}
						} else {
							fork, err = ctx.KvFork(parent)
							if err != nil {
								return err
							}
							if err := synthPred(ctx, fork, cfg.SuffixTokens, seed); err != nil {
								fork.Remove()
								return err
							}
						}
						for d := 0; d < cfg.DecodeTokens; d++ {
							if err := synthPred(ctx, fork, 1, seed+500+d); err != nil {
								fork.Remove()
								return err
							}
						}
						fork.Remove()
						now := ctx.Clock().Now()
						job := (fam*cfg.ClientsPerFamily+c)*cfg.RequestsPerClient + r
						mu.Lock()
						counts[job]++
						completed++
						lats = append(lats, now-reqStart)
						if now > lastDone {
							lastDone = now
						}
						mu.Unlock()
					}
					return nil
				})
				clk.Go("join-client", func() {
					defer wg.Done()
					noteErr(p.Wait())
				})
			}
		}
		wg.Wait()
	})
	if runErr != nil {
		panic(fmt.Sprintf("experiments: chaos cell %s: %v", mode, runErr))
	}

	st := k.Stats()
	pt := ChaosPoint{
		Mode:           mode,
		Replicas:       cfg.Replicas,
		Families:       cfg.Families,
		Jobs:           jobs,
		Completed:      completed,
		Faults:         inj.TotalFired(),
		Crashes:        st.Sched.Crashes,
		Requeued:       st.Sched.Requeued,
		LostTokens:     st.Sched.LostTokens,
		Migrations:     st.Migration.Migrations,
		TransferAborts: st.Migration.TransferAborts,
		Checkpoints:    checkpoints,
		CommitErrors:   commitErrors,
		SpillRollbacks: st.KVD.SpillRollbacks,
		HitTokens:      st.PrefixCache.HitTokens,
		Makespan:       lastDone - clientsStart,
	}
	for _, n := range counts {
		if n == 0 {
			pt.Lost++
		}
		if n > 1 {
			pt.Duplicated += n - 1
		}
	}
	pt.ExpectedTokens = int64(cfg.Families*cfg.PrefixTokens) + int64(jobs*(cfg.SuffixTokens+cfg.DecodeTokens))
	if prefix {
		// Flat prompts re-submit the preamble with every job; users are
		// charged for it even when the cache serves it without executing.
		pt.ExpectedTokens += int64(jobs * cfg.PrefixTokens)
	}
	pt.ChargedTokens = k.UserUsage("admin")
	for fam := 0; fam < cfg.Families; fam++ {
		for c := 0; c < cfg.ClientsPerFamily; c++ {
			pt.ChargedTokens += k.UserUsage(fmt.Sprintf("fam%d-c%d", fam, c))
		}
	}
	pt.BillingExact = pt.ChargedTokens == pt.ExpectedTokens
	pt.TokensExact = st.Sched.ExecutedTokens == st.Sched.Tokens+st.Sched.LostTokens
	if pt.Makespan > 0 {
		pt.Throughput = float64(completed) / pt.Makespan.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		pt.P50 = lats[n/2]
		i99 := n * 99 / 100
		if i99 >= n {
			i99 = n - 1
		}
		pt.P99 = lats[i99]
	}

	// Epilogue: power-fail the machine and boot a fresh kernel over the
	// bare (fault-free) disk. Whatever the cell did to the checkpoint
	// stream, recovery must land a consistent snapshot generation.
	vfs.Crash()
	clk2 := simclock.New()
	k2 := core.New(clk2, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		FS:     chaosFS(),
		Policy: sched.DefaultPoisson(),
		KV:     kvd.Config{Policy: "lru"},
		Disk:   core.DiskConfig{Bytes: diskBytes, FS: vfs},
	})
	drive(clk2, func() {
		files, tokens, rerr := k2.RecoverKV()
		pt.RecoveredFiles, pt.RecoveredTokens = files, tokens
		pt.RecoverOK = rerr == nil
	})
	return pt
}

// ChaosTable renders the sweep.
func ChaosTable(points []ChaosPoint) metrics.Table {
	t := metrics.Table{
		Title: "C1: fault injection at the I/O seams — jobs, billing, and recovery stay exact",
		Headers: []string{"cell", "jobs", "lost", "dup", "billing", "ledger", "faults",
			"crashes", "requeued", "aborts", "cp-err", "recovered", "p99", "p99-infl", "req/s"},
	}
	okStr := func(b bool) string {
		if b {
			return "exact"
		}
		return "BROKEN"
	}
	for _, p := range points {
		t.AddRow(p.Mode, fmt.Sprintf("%d/%d", p.Completed, p.Jobs), p.Lost, p.Duplicated,
			okStr(p.BillingExact), okStr(p.TokensExact), p.Faults,
			p.Crashes, p.Requeued, p.TransferAborts, p.CommitErrors,
			fmt.Sprintf("%d (%d tok)", p.RecoveredFiles, p.RecoveredTokens),
			p.P99.Round(time.Microsecond), fmt.Sprintf("%.2fx", p.P99Inflation),
			fmt.Sprintf("%.2f", p.Throughput))
	}
	return t
}
