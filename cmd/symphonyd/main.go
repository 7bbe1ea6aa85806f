// Command symphonyd serves a Symphony kernel over HTTP — Figure 1
// (bottom) as a runnable daemon. Clients ship declarative LIPs (lipscript
// JSON) as asynchronous jobs to the v2 API: POST /v2/programs returns a
// job ID immediately, GET /v2/programs/{id}/events streams progress as
// Server-Sent Events, and DELETE /v2/programs/{id} cancels. The
// synchronous /v1/programs and /v1/completions endpoints are thin
// wrappers over the same job layer. The kernel runs against the simulated
// model on a realtime-paced virtual clock, so observed latencies follow
// the A100/13B cost model.
//
// The batch scheduler can drive several simulated GPUs: -gpus sets the
// replica count and -dispatch selects how pred calls are routed across
// them (round-robin, least-loaded, cache-affinity — which pins forks of
// one conversation to the replica holding their prefix — or
// cache-affinity-migrate, which additionally lets the kernel migrate a
// stranded prefix's KV pages to a colder replica over a simulated
// NVLink/IB-class interconnect: -interconnect-gbps sets the fabric
// bandwidth, -migrate-threshold the home-overload factor, and each move
// streams to the affected job as a kv_migrate event). Per-replica
// utilization and the migration ledger are reported by /v1/stats under
// "sched" and "migration".
//
// The batch scheduler executes iteration-level (Orca-style continuous
// batching): each pred call runs up to -step-quantum tokens per GPU
// iteration, and -priority-policy orders every iteration — "lanes"
// (default) schedules strict interactive/normal/batch priority lanes
// with aging and preempts mid-flight batch work at iteration boundaries
// when interactive calls wait; "fifo" is the run-to-completion baseline.
// Requests pick their lane with a "priority" field on v1/v2 program (and
// completion) bodies; -default-priority sets the lane for requests that
// don't, and -batch-tenants lists tenants whose jobs default to the
// batch lane. Per-lane queue-delay histograms and preemption counters
// are reported by /v1/stats under "sched.lanes".
//
// Two executor options compose with either policy: -prefill-chunk caps
// the prefill tokens one pred contributes per iteration (Sarathi-style
// chunked prefill, effective even under fifo; 0 disables), and
// -spec-decode runs greedy decode runs as draft/verify rounds against
// the built-in draft-1b model inside each iteration — the draft
// proposes -spec-window tokens (adaptively resized from the observed
// acceptance rate), the target verifies them in one batched step, and
// the accepted prefix plus one correction token retire together.
// -spec-decode requires an iteration-level -priority-policy; /v1/stats
// reports the draft configuration under "spec" and the speculation
// ledger as "sched.spec_*".
//
// A kernel radix prefix cache (-prefix-cache) deduplicates KV across
// jobs: every committed prefill leaves its -prefix-chunk-aligned
// prefixes in a radix tree, and a later prompt that extends a cached
// prefix attaches it copy-on-write and prefills only the uncached tail,
// with same-lane waiting calls ordered longest-match-first. The hit
// ledger is reported by /v1/stats under "prefix_cache"; each attach
// streams to the affected job as a kv_share event.
//
// GPU KV memory is managed by the kernel memory daemon: -kv-policy
// selects the eviction policy (lru, lfu, cost-aware, or none to disable)
// and -kv-high-water the usage fraction that triggers reclaim. Under
// pressure the daemon offloads cold KV files to host memory, restores
// them transparently on access, and cooperatively preempts the
// longest-idle process instead of failing allocations; daemon counters
// appear under "kvd" in /v1/stats and offload/restore/park events stream
// to the affected job as kv_pressure events on the v2 SSE surface.
//
// A durable disk KV tier sits below host memory when -kv-disk-gb is
// set: the daemon spills cold host files to an FMC1-style snapshot
// store once host usage crosses -kv-disk-high-water, named prefixes are
// committed every -kv-checkpoint of virtual time, and a restarted
// daemon re-imports them lazily (warm restart: the first pred on a
// recovered prefix pays an NVMe load or a recompute, whichever the cost
// model says is cheaper). Disk page counts appear under "fs" and the
// spill/load ledger under "kvd" in /v1/stats; spill/load actions stream
// as kv_pressure events.
//
//	symphonyd -addr :8080 -speedup 1 -gpus 4 -dispatch cache-affinity -kv-policy cost-aware
//	curl -s -X POST localhost:8080/v2/programs -d @examples/wire/stream.json
//	curl -sN localhost:8080/v2/programs/job-000001/events
//	curl -s -X DELETE localhost:8080/v2/programs/job-000001
//	curl -s localhost:8080/v1/completions -d '{"prompt":"hi","max_tokens":16}'
//	curl -s localhost:8080/v1/stats
//
// The /v1/stats body is core.Stats encoded as is; docs/ARCHITECTURE.md
// lists every key.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kvd"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/simclock"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	speedup := flag.Float64("speedup", 1, "virtual-time speedup over wall time")
	gpus := flag.Int("gpus", 1, "number of simulated GPU replicas")
	dispatch := flag.String("dispatch", "round-robin",
		"replica dispatch policy ("+strings.Join(sched.DispatcherNames(), "|")+")")
	interconnectGbps := flag.Float64("interconnect-gbps", netsim.DefaultInterconnectGbps,
		"replica interconnect bandwidth in Gbit/s for -dispatch cache-affinity-migrate")
	migrateThreshold := flag.Float64("migrate-threshold", core.DefaultMigrateThreshold,
		"home-overload factor above which a prefix family migrates (cache-affinity-migrate)")
	kvPolicy := flag.String("kv-policy", "lru",
		"KV memory daemon eviction policy ("+strings.Join(kvd.PolicyNames(), "|")+"|none)")
	kvHighWater := flag.Float64("kv-high-water", 0.90,
		"GPU KV usage fraction that triggers daemon reclaim")
	kvDiskGB := flag.Float64("kv-disk-gb", 0,
		"durable disk KV tier size in GiB (0 disables; enables warm restarts)")
	kvDiskHighWater := flag.Float64("kv-disk-high-water", 0.85,
		"host KV usage fraction that triggers spilling cold files to disk")
	kvCheckpoint := flag.Duration("kv-checkpoint", time.Minute,
		"interval between KV snapshot commits when the disk tier is enabled (0 disables)")
	prioPolicy := flag.String("priority-policy", "lanes",
		"GPU iteration ordering policy ("+strings.Join(sched.PriorityPolicyNames(), "|")+")")
	stepQuantum := flag.Int("step-quantum", sched.DefaultQuantum,
		"max tokens one pred call executes per GPU iteration under the lanes policy")
	prefillChunk := flag.Int("prefill-chunk", 0,
		"max prefill tokens one pred call contributes per GPU iteration, any priority policy (0 disables chunked prefill)")
	specDecode := flag.Bool("spec-decode", false,
		"speculatively decode generation runs on the draft-1b model inside each GPU iteration (requires an iteration-level -priority-policy)")
	specWindow := flag.Int("spec-window", sched.DefaultSpecWindow,
		fmt.Sprintf("initial draft window for -spec-decode (adapted between %d and %d from the observed acceptance rate)",
			sched.DefaultSpecMinWindow, sched.DefaultSpecMaxWindow))
	prefixCache := flag.Bool("prefix-cache", false,
		"enable the kernel radix prefix cache: cross-job KV deduplication of shared prompt prefixes with cache-aware call ordering")
	prefixChunk := flag.Int("prefix-chunk", core.DefaultPrefixChunk,
		"radix chunk size in tokens for -prefix-cache (rounded up to a KV page multiple)")
	defaultPriority := flag.String("default-priority", "normal",
		"scheduling lane for requests without a priority field (interactive|normal|batch)")
	batchTenants := flag.String("batch-tenants", "",
		"comma-separated tenants whose jobs default to the batch lane")
	maxJobs := flag.Int("max-jobs-per-user", 32, "cap on a tenant's concurrently live jobs")
	retention := flag.Duration("job-retention", 10*time.Minute,
		"how long finished jobs stay pollable (virtual time)")
	flag.Parse()

	// Reject out-of-range numeric flags up front: the layers below would
	// silently replace them with their defaults. The float checks are
	// written so that NaN fails them too.
	if !(*speedup > 0) {
		log.Fatalf("-speedup must be positive (got %g)", *speedup)
	}
	if *gpus < 1 {
		log.Fatalf("-gpus must be >= 1 (got %d)", *gpus)
	}
	if !(*interconnectGbps > 0) {
		log.Fatalf("-interconnect-gbps must be positive (got %g)", *interconnectGbps)
	}
	if !(*migrateThreshold > 0) {
		log.Fatalf("-migrate-threshold must be positive (got %g)", *migrateThreshold)
	}
	if !(*kvHighWater > 0 && *kvHighWater <= 1) {
		log.Fatalf("-kv-high-water must be in (0, 1] (got %g)", *kvHighWater)
	}
	if !(*kvDiskGB >= 0) {
		log.Fatalf("-kv-disk-gb must be >= 0 (got %g; 0 disables the disk tier)", *kvDiskGB)
	}
	if !(*kvDiskHighWater > 0 && *kvDiskHighWater <= 1) {
		log.Fatalf("-kv-disk-high-water must be in (0, 1] (got %g)", *kvDiskHighWater)
	}
	if *maxJobs <= 0 {
		log.Fatalf("-max-jobs-per-user must be positive (got %d)", *maxJobs)
	}
	if *retention <= 0 {
		log.Fatalf("-job-retention must be positive (got %v)", *retention)
	}
	// Reject bad enumerated flag values up front, each with the list of
	// valid names, instead of failing deep inside kernel setup.
	dispatcher, err := sched.NewDispatcher(*dispatch)
	if err != nil {
		log.Fatalf("%v\nvalid dispatchers: %s", err, strings.Join(sched.DispatcherNames(), ", "))
	}
	priority, err := sched.NewPriorityPolicy(*prioPolicy)
	if err != nil {
		log.Fatalf("%v\nvalid priority policies: %s", err, strings.Join(sched.PriorityPolicyNames(), ", "))
	}
	if *stepQuantum <= 0 {
		log.Fatalf("-step-quantum must be positive (got %d)", *stepQuantum)
	}
	if lanes, ok := priority.(*sched.Lanes); ok {
		lanes.SliceTokens = *stepQuantum
	}
	if *prefillChunk < 0 {
		log.Fatalf("-prefill-chunk must be >= 0 (got %d; 0 disables chunking)", *prefillChunk)
	}
	if *specDecode && priority.Quantum() <= 0 {
		log.Fatalf("-spec-decode requires an iteration-level priority policy (have %q; run-to-completion policies never reach a draft/verify boundary)\nvalid policies: %s",
			*prioPolicy, strings.Join(iterationPolicies(), ", "))
	}
	if *specWindow < sched.DefaultSpecMinWindow || *specWindow > sched.DefaultSpecMaxWindow {
		log.Fatalf("-spec-window must be between %d and %d (got %d)",
			sched.DefaultSpecMinWindow, sched.DefaultSpecMaxWindow, *specWindow)
	}
	if _, err := sched.ParsePriority(*defaultPriority); err != nil {
		log.Fatalf("-default-priority: %v", err)
	}
	if *prefixChunk <= 0 {
		log.Fatalf("-prefix-chunk must be positive (got %d)", *prefixChunk)
	}
	tenantPrio := make(map[string]string)
	for _, tenant := range strings.Split(*batchTenants, ",") {
		if tenant = strings.TrimSpace(tenant); tenant != "" {
			tenantPrio[tenant] = "batch"
		}
	}
	kvCfg := kvd.Config{Policy: *kvPolicy, HighWater: *kvHighWater}
	if kvCfg.Enabled() {
		if _, err := kvd.NewPolicy(*kvPolicy); err != nil {
			log.Fatalf("%v\nvalid KV policies: %s, none", err, strings.Join(kvd.PolicyNames(), ", "))
		}
	}
	var specCfg *core.SpecConfig
	if *specDecode {
		specCfg = &core.SpecConfig{Draft: "draft-1b", Window: *specWindow}
	}
	clk := simclock.NewRealtime(*speedup)
	target := model.New(model.Llama13B())
	kernel := core.New(clk, core.Config{
		Models: map[string]*model.Model{
			"llama-13b": target,
			"draft-1b":  model.New(model.AlignedDraft(target, 0.85)),
		},
		DefaultModel:     "llama-13b",
		Policy:           sched.DefaultPoisson(),
		PriorityPolicy:   priority,
		PrefillChunk:     *prefillChunk,
		Spec:             specCfg,
		Replicas:         *gpus,
		Dispatcher:       dispatcher,
		Interconnect:     netsim.InterconnectFromGbps(clk, *interconnectGbps),
		MigrateThreshold: *migrateThreshold,
		KV:               kvCfg,
		Disk: core.DiskConfig{
			Bytes:     int64(*kvDiskGB * float64(1<<30)),
			HighWater: *kvDiskHighWater,
		},
		Prefix: core.PrefixConfig{
			Enabled:         *prefixCache,
			ChunkTokens:     *prefixChunk,
			CacheAwareOrder: true,
		},
	})
	if kernel.DiskTier() != nil {
		// Warm restart: re-import whatever the previous incarnation
		// committed, then keep the snapshot store fresh with periodic
		// commits. Runs as a clock actor because snapshot I/O bills
		// virtual disk time.
		interval := *kvCheckpoint
		clk.Go("kv-checkpoint", func() {
			files, tokens, err := kernel.RecoverKV()
			if err != nil {
				log.Printf("kv recover: %v", err)
			}
			if files > 0 {
				log.Printf("kv recover: %d prefixes (%d tokens) re-imported from disk", files, tokens)
			}
			for interval > 0 {
				if err := clk.Sleep(interval); err != nil {
					return
				}
				if _, err := kernel.CheckpointKV(); err != nil {
					log.Printf("kv checkpoint: %v", err)
				}
			}
		})
	}
	kernel.RegisterTool("search", core.Tool{
		Latency: 150 * time.Millisecond,
		Fn:      func(args string) (string, error) { return "results for " + args, nil },
	})
	kernel.RegisterTool("weather", core.Tool{
		Latency: 100 * time.Millisecond,
		Fn:      func(args string) (string, error) { return fmt.Sprintf("weather(%s)=fair", args), nil },
	})

	srv := server.NewWith(clk, kernel, server.Options{
		MaxJobsPerUser:  *maxJobs,
		Retention:       *retention,
		DefaultPriority: *defaultPriority,
		TenantPriority:  tenantPrio,
	})
	specNote := "off"
	if specCfg != nil {
		specNote = fmt.Sprintf("%s w=%d", specCfg.Draft, *specWindow)
	}
	prefixNote := "off"
	if *prefixCache {
		prefixNote = fmt.Sprintf("chunk %d", kernel.Stats().PrefixCache.ChunkTokens)
	}
	log.Printf("symphonyd: llama-13b (simulated) on %s, %gx virtual time, %d GPU replica(s), %s dispatch, %s priority policy, %s kv policy, prefill chunk %d, spec decode %s, prefix cache %s",
		*addr, *speedup, kernel.Scheduler().Replicas(), kernel.Scheduler().Dispatcher(),
		kernel.Scheduler().PriorityPolicy(), kernel.KVD().PolicyName(),
		kernel.Scheduler().PrefillChunk(), specNote, prefixNote)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := hs.ListenAndServe(); err != nil {
		log.Fatal(err)
	}
}

// HTTP connection timeouts, in wall time. A client must finish sending
// its request headers within readHeaderTimeout, and an idle keep-alive
// connection is closed after idleTimeout. There is deliberately no write
// or read timeout: a v2 event stream (SSE) stays open for its program's
// life, and net/http cancels a request's context when the connection's
// read deadline passes while its handler still runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// iterationPolicies lists the priority policies compatible with
// -spec-decode: those that bound each call's per-iteration slice, so a
// decode call actually reaches a draft/verify boundary every step.
func iterationPolicies() []string {
	var out []string
	for _, name := range sched.PriorityPolicyNames() {
		if p, err := sched.NewPriorityPolicy(name); err == nil && p.Quantum() > 0 {
			out = append(out, name)
		}
	}
	return out
}
