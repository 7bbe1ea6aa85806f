package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// MigrateConfig parameterizes the cross-replica KV migration sweep: a
// skewed shared-prefix workload where every fork family's root hash
// homes to replica 0 under cache-affinity's static hashing, so one
// replica becomes a hotspot while the rest idle. The sweep runs the same
// workload under each dispatcher; cache-affinity-migrate lets the kernel
// migration engine move stranded prefixes to cold replicas over the
// interconnect (or recompute them there), recovering replica balance.
//
// One extra family is held advisory-locked by its owner for the whole
// run: the engine must refuse to migrate it (its index home must never
// change), which the sweep records as the LockedFamilyMoved invariant.
type MigrateConfig struct {
	// Replicas is the GPU replica count (the hotspot is replica 0).
	Replicas int
	// Dispatchers lists the dispatch policies to compare.
	Dispatchers []string
	// Families is the number of distinct shared-prefix fork families
	// (excluding the locked holdout family).
	Families int
	// ClientsPerFamily closed-loop clients fork each family's prefix.
	ClientsPerFamily int
	// RequestsPerClient is how many fork-prefill-decode requests each
	// client runs back to back.
	RequestsPerClient int
	// PrefixTokens is the shared prefix length of each family.
	PrefixTokens int
	// SuffixTokens is the unique continuation each request prefills onto
	// its fork — the compute that makes a single hot replica the
	// bottleneck (prefill cost is linear in tokens).
	SuffixTokens int
	// DecodeTokens is the per-request decode length.
	DecodeTokens int
	// InterconnectGbps is the replica fabric bandwidth; zero means the
	// netsim default.
	InterconnectGbps float64
	// Threshold is the engine's home-overload factor; zero means the
	// core default.
	Threshold float64
	// Seed offsets the deterministic workload streams (see seedBase); 0
	// and 1 both select the recorded baseline.
	Seed int64
}

// DefaultMigrate returns the sweep used by symphony-bench -exp migrate.
func DefaultMigrate() MigrateConfig {
	return MigrateConfig{
		Replicas:          4,
		Dispatchers:       []string{"cache-affinity", "cache-affinity-migrate"},
		Families:          8,
		ClientsPerFamily:  2,
		RequestsPerClient: 4,
		PrefixTokens:      512,
		SuffixTokens:      192,
		DecodeTokens:      8,
		Seed:              1,
	}
}

// QuickMigrate returns a reduced sweep for -quick and the test suite.
func QuickMigrate() MigrateConfig {
	return MigrateConfig{
		Replicas:          4,
		Dispatchers:       []string{"cache-affinity", "cache-affinity-migrate"},
		Families:          8,
		ClientsPerFamily:  2,
		RequestsPerClient: 3,
		PrefixTokens:      384,
		SuffixTokens:      192,
		DecodeTokens:      4,
		Seed:              1,
	}
}

// MigratePoint is one dispatcher's measurement on the skewed workload.
type MigratePoint struct {
	Dispatcher string
	Replicas   int
	Families   int
	Clients    int
	Completed  int
	// Makespan covers the client phase (prefix seeding excluded);
	// Throughput is virtual requests per second over it.
	Makespan   time.Duration
	Throughput float64
	// Speedup is vs the cache-affinity row (1 when absent).
	Speedup float64
	// Utilization spread across replicas: a recovered workload has
	// UtilMin near UtilMax instead of one hot replica.
	UtilMean float64
	UtilMin  float64
	UtilMax  float64
	// Engine ledger (zero under plain cache-affinity).
	Migrations       int64
	MigratedTokens   int64
	MigrateTime      time.Duration
	ColdStarts       int64
	RecomputedTokens int64
	RefusedLocked    int64
	RefusedInFlight  int64
	RefusedPressure  int64
	// LockedFamilyMoved reports whether the advisory-locked holdout
	// family's home ever changed — the acceptance bar is false: locked
	// files are never migrated.
	LockedFamilyMoved bool
}

// RunMigrate sweeps the dispatchers over the skewed workload.
func RunMigrate(cfg MigrateConfig) []MigratePoint {
	var out []MigratePoint
	for _, d := range cfg.Dispatchers {
		out = append(out, runMigrateCell(cfg, d))
	}
	var base float64
	for _, p := range out {
		if p.Dispatcher == "cache-affinity" {
			base = p.Throughput
			break
		}
	}
	for i := range out {
		if base > 0 {
			out[i].Speedup = out[i].Throughput / base
		} else {
			out[i].Speedup = 1
		}
	}
	return out
}

// skewedFirstToken picks a token whose single-entry context hash homes
// to replica `target` under hash % replicas, searching deterministically
// from seed. The root KV hash of a file is the hash after its first
// token, so seeding a family with this token pins its static
// cache-affinity home.
func skewedFirstToken(replicas, target, seed int) token.ID {
	for t := seed; ; t++ {
		if uint64(model.CtxHash(0).Extend(token.ID(t), 0))%uint64(replicas) == uint64(target) {
			return token.ID(t)
		}
	}
}

// familyRoot is the root KV hash a family seeded with first token t has.
func familyRoot(t token.ID) model.CtxHash {
	return model.CtxHash(0).Extend(t, 0)
}

// seedFamily creates and prefills one shared-prefix family file. The
// first token is the skew-engineered one; the rest differentiate the
// families.
func seedFamily(ctx *core.Ctx, path string, first token.ID, prefix, seed int) error {
	f, err := ctx.KvCreate(path, kvfs.ModeShared)
	if err != nil {
		return err
	}
	toks := make([]token.ID, prefix)
	pos := make([]int, prefix)
	toks[0] = first
	for i := 1; i < prefix; i++ {
		toks[i] = token.ID(seed + i)
		pos[i] = i
	}
	_, err = ctx.Pred(f, toks, pos)
	return err
}

// runMigrateCell measures one dispatcher on the skewed workload.
func runMigrateCell(cfg MigrateConfig, dispatch string) MigratePoint {
	dispatcher, err := sched.NewDispatcher(dispatch)
	if err != nil {
		panic(err)
	}
	clk := simclock.New()
	bpt := model.A100Llama13B().KVBytesPerToken
	k := core.New(clk, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		// Capacity is not the variable under study: size the pool so the
		// closed-loop population (and migration's transient double
		// residency) never hits ErrNoSpace.
		FS:               fig3FS(64<<30, bpt),
		Policy:           sched.DefaultPoisson(),
		Replicas:         cfg.Replicas,
		Dispatcher:       dispatcher,
		Interconnect:     netsim.InterconnectFromGbps(clk, cfg.InterconnectGbps),
		MigrateThreshold: cfg.Threshold,
	})

	lockedFirst := skewedFirstToken(cfg.Replicas, 0, 7_000_000)
	var (
		mu           sync.Mutex
		completed    int
		clientsStart time.Duration
		lastDone     time.Duration
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
		// Phase 1: seed every family's shared prefix. All roots are
		// engineered to home to replica 0 under static hashing.
		seed := k.Submit("admin", func(ctx *core.Ctx) error {
			for i := 0; i < cfg.Families; i++ {
				first := skewedFirstToken(cfg.Replicas, 0, 1_000_000+i*10_000)
				if err := seedFamily(ctx, fmt.Sprintf("fam-%d", i), first, cfg.PrefixTokens, seedBase(cfg.Seed)+1_000_000+i*10_000); err != nil {
					return err
				}
			}
			return seedFamily(ctx, "fam-locked", lockedFirst, cfg.PrefixTokens, seedBase(cfg.Seed)+7_000_000)
		})
		if err := seed.Wait(); err != nil {
			noteErr(err)
			return
		}
		clientsStart = clk.Now()

		wg := clk.NewWaitGroup()
		// The locked holdout: its owner locks the family file and keeps
		// decoding on it directly for the whole run. The engine sees its
		// (overloaded) home but must never move it.
		wg.Add(1)
		holdout := k.Submit("admin", func(ctx *core.Ctx) error {
			f, err := ctx.KvOpen("fam-locked", true)
			if err != nil {
				return err
			}
			if err := ctx.KvLock(f); err != nil {
				return err
			}
			defer ctx.KvUnlock(f)
			rounds := cfg.RequestsPerClient * cfg.DecodeTokens
			for r := 0; r < rounds; r++ {
				if err := synthPred(ctx, f, 1, 7_100_000+r); err != nil {
					return err
				}
				if err := ctx.Sleep(5 * time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		})
		clk.Go("join-holdout", func() {
			defer wg.Done()
			noteErr(holdout.Wait())
		})

		// Phase 2: closed-loop clients fork their family's prefix,
		// prefill a unique continuation, and decode.
		for fam := 0; fam < cfg.Families; fam++ {
			for c := 0; c < cfg.ClientsPerFamily; c++ {
				fam, c := fam, c
				wg.Add(1)
				p := k.Submit(fmt.Sprintf("fam%d-c%d", fam, c), func(ctx *core.Ctx) error {
					// Stagger starts so request waves do not phase-lock.
					if err := ctx.Sleep(time.Duration(fam*cfg.ClientsPerFamily+c) * time.Millisecond); err != nil {
						return err
					}
					parent, err := ctx.KvOpen(fmt.Sprintf("fam-%d", fam), false)
					if err != nil {
						return err
					}
					for r := 0; r < cfg.RequestsPerClient; r++ {
						fork, err := ctx.KvFork(parent)
						if err != nil {
							return err
						}
						seed := seedBase(cfg.Seed) + 2_000_000 + fam*100_000 + c*10_000 + r*1_000
						if err := synthPred(ctx, fork, cfg.SuffixTokens, seed); err != nil {
							fork.Remove()
							return err
						}
						for d := 0; d < cfg.DecodeTokens; d++ {
							if err := synthPred(ctx, fork, 1, seed+500+d); err != nil {
								fork.Remove()
								return err
							}
						}
						fork.Remove()
						now := ctx.Clock().Now()
						mu.Lock()
						completed++
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
		panic(fmt.Sprintf("experiments: migrate cell %s: %v", dispatch, runErr))
	}

	st := k.Stats()
	pt := MigratePoint{
		Dispatcher:       dispatch,
		Replicas:         cfg.Replicas,
		Families:         cfg.Families,
		Clients:          cfg.Families * cfg.ClientsPerFamily,
		Completed:        completed,
		Makespan:         lastDone - clientsStart,
		UtilMean:         st.Sched.Utilization,
		Migrations:       st.Migration.Migrations,
		MigratedTokens:   st.Migration.MigratedTokens,
		MigrateTime:      st.Migration.MigrateTime,
		ColdStarts:       st.Migration.ColdStarts,
		RecomputedTokens: st.Migration.RecomputedTokens,
		RefusedLocked:    st.Migration.RefusedLocked,
		RefusedInFlight:  st.Migration.RefusedInFlight,
		RefusedPressure:  st.Migration.RefusedPressure,
	}
	if home, ok := k.PrefixHome(familyRoot(lockedFirst)); ok && home != 0 {
		pt.LockedFamilyMoved = true
	}
	if pt.Makespan > 0 {
		pt.Throughput = float64(completed) / pt.Makespan.Seconds()
	}
	for i, rs := range st.Sched.Replicas {
		if i == 0 || rs.Utilization < pt.UtilMin {
			pt.UtilMin = rs.Utilization
		}
		if rs.Utilization > pt.UtilMax {
			pt.UtilMax = rs.Utilization
		}
	}
	return pt
}

// MigrateTable renders the sweep.
func MigrateTable(points []MigratePoint) metrics.Table {
	t := metrics.Table{
		Title: "M1: cross-replica KV migration on a skewed shared-prefix workload",
		Headers: []string{"dispatch", "gpus", "req/s", "speedup", "util-min", "util-max",
			"migrations", "mig-tok", "mig-time", "cold-starts", "ref-lock", "ref-inflight", "locked-moved"},
	}
	for _, p := range points {
		t.AddRow(p.Dispatcher, p.Replicas,
			fmt.Sprintf("%.2f", p.Throughput), fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.2f", p.UtilMin), fmt.Sprintf("%.2f", p.UtilMax),
			p.Migrations, p.MigratedTokens, p.MigrateTime.Round(time.Microsecond),
			p.ColdStarts, p.RefusedLocked, p.RefusedInFlight, p.LockedFamilyMoved)
	}
	return t
}
