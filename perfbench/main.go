// Command perfbench is the repository's benchmark: one fixed Symphony
// deployment serving an open-loop, seeded Poisson stream of lipscript
// programs in virtual time, on one of three workloads.
//
//	bash perfbench/run.sh --workload rag-fork --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it runs the offered-rate ladder, checks the outputs,
// re-runs the 1x rung for --seconds of wall time and prints the
// end-to-end metrics. With --trace 1 it prints the per-layer metrics of
// the 1x rung and writes the Chrome trace, the CPU profile and the
// per-layer table under --out. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is nonzero when an output check fails. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload *workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rag-fork, prompt-lanes or agent-tools")
	seed := fs.Int64("seed", 1, "seed of the arrival schedule and request shapes")
	seconds := fs.Float64("seconds", 20, "wall seconds to spend measuring")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer mode")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for traced-run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: *out}
	var rep *report
	var err error
	if o.trace {
		rep, err = traced(o, stdout)
	} else {
		rep, err = untraced(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// report is one run's result line plus the checks that failed.
type report struct {
	attempted, failed int
	metrics           []metric
	problems          []string
}

func (r *report) check(what string, problems []string) {
	for _, p := range problems {
		r.problems = append(r.problems, what+": "+p)
	}
}

// print writes the human-readable metric table and then the result line.
func (r *report) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		vals[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// rungSize is the request count of the rung at multiple m.
func (w *workloadSpec) rungSize(m float64) int {
	if m == 1 {
		return w.n1
	}
	return w.nRung
}

// wallSamples accumulates the simulator-cost figures: set-up time from
// every rung (all rungs set up the same deployment), the rest from runs
// of the 1x rung, the token rate per sampling window.
type wallSamples struct {
	setup, tokPerS, allocKB, heapMB []float64
}

func (s *wallSamples) addSetup(r *rungResult) { s.setup = append(s.setup, r.setupWall.Seconds()) }

func (s *wallSamples) add(r *rungResult) {
	s.addSetup(r)
	s.tokPerS = append(s.tokPerS, r.tokRates...)
	s.allocKB = append(s.allocKB, float64(r.allocB)/1024/float64(max(r.execToks, 1)))
	s.heapMB = append(s.heapMB, float64(r.liveHeap)/(1<<20))
}

// untraced runs the ladder, the output checks and the repeated 1x rung.
func untraced(o options, stdout io.Writer) (*report, error) {
	w := o.workload
	start := time.Now()
	fmt.Fprintf(stdout, "perfbench %s seed=%d deployment: symphonyd %s (virtual clock, in-process ServeHTTP)\n",
		w.name, o.seed, deployFlags)
	sched := w.schedule(o.seed)
	rep := &report{}
	var walls wallSamples
	var one *rungResult
	sloRate, err := climb(w, func(m float64) (bool, error) {
		rate := m * w.nominal
		r, err := runRung(w, rungRequests(sched, w.rungSize(m), rate), true, nil)
		if err != nil {
			return false, err
		}
		rep.check(fmt.Sprintf("rung %.2fx", m), r.checks())
		rep.attempted += len(r.outcomes)
		rep.failed += r.failed()
		if m == 1 {
			one = r
			walls.add(r)
		} else {
			walls.addSetup(r)
		}
		fmt.Fprintf(stdout, "rung %.2fx %7.3f rps n=%-5d failed=%-3d slo_attain=%.4f backlog_grows=%-5t pass=%t\n",
			m, rate, len(r.outcomes), r.failed(), r.sloAttain(), r.backlogGrows(), r.passes())
		return r.passes(), nil
	})
	if err != nil {
		return nil, err
	}
	if w.greedy {
		rep.check("replay", replayCheck(w, one, o.seed))
	}
	digest, fingerprint := one.digest(), one.virtual()
	fmt.Fprintf(stdout, "output_digest %s %s\n", w.name, digest)
	// Re-run the 1x rung until the measuring time is spent: the modeled
	// figures must repeat exactly; the wall-clock ones are medians.
	reqs := rungRequests(sched, w.n1, w.nominal)
	for repeats := 0; repeats == 0 || time.Since(start).Seconds() < o.seconds; repeats++ {
		r, err := runRung(w, reqs, true, nil)
		if err != nil {
			return nil, err
		}
		if r.digest() != digest || r.virtual() != fingerprint {
			rep.problems = append(rep.problems, "repeated 1x rung diverged from the first run")
		}
		walls.add(r)
	}
	rep.metrics = endToEnd(one, sloRate, rep, &walls)
	return rep, nil
}

// climb runs the ladder's rungs in ascending order through run and
// returns the highest rate that passed with every rung below it passing.
// Rungs above the first failing rung are skipped, except the 1x rung,
// which always runs because the latency metrics are reported there.
func climb(w *workloadSpec, run func(m float64) (bool, error)) (float64, error) {
	sloRate, failing := 0.0, false
	for _, m := range ladder {
		if failing && m != 1 {
			continue
		}
		pass, err := run(m)
		if err != nil {
			return 0, err
		}
		if pass && !failing {
			sloRate = m * w.nominal
		}
		failing = failing || !pass
	}
	return sloRate, nil
}

// endToEnd computes the thirteen end-to-end metrics.
func endToEnd(one *rungResult, sloRate float64, rep *report, walls *wallSamples) []metric {
	var ttft, norm, job []float64
	for _, o := range one.outcomes {
		if !o.ok() {
			continue
		}
		job = append(job, o.jobMS(one.start))
		if !o.req.batch {
			ttft = append(ttft, o.ttftMS(one.start))
			norm = append(norm, o.normMS(one.start))
		}
	}
	pct := func(name string, xs []float64, q float64) metric {
		return metric{name: name, unit: "ms", value: percentile(xs, q), n: len(xs)}
	}
	return []metric{
		pct("ttft_p50_ms", ttft, 0.5),
		pct("ttft_p99_ms", ttft, 0.99),
		pct("norm_lat_p50_ms", norm, 0.5),
		pct("norm_lat_p99_ms", norm, 0.99),
		pct("job_p50_ms", job, 0.5),
		pct("job_p99_ms", job, 0.99),
		{name: "slo_attain", unit: "ratio", value: one.sloAttain(), n: len(ttft)},
		{name: "slo_rate_rps", unit: "1/s", value: sloRate, n: len(ladder)},
		{name: "ok_frac", unit: "ratio", value: 1 - float64(rep.failed)/float64(rep.attempted), n: rep.attempted},
		{name: "sim_tok_per_s", unit: "1/s", value: median(walls.tokPerS), n: len(walls.tokPerS)},
		{name: "alloc_kb_per_tok", unit: "KiB", value: median(walls.allocKB), n: len(walls.allocKB)},
		{name: "peak_heap_mb", unit: "MiB", value: median(walls.heapMB), n: len(walls.heapMB)},
		{name: "setup_s", unit: "s", value: median(walls.setup), n: len(walls.setup)},
	}
}

// replaySamples is how many greedy requests the replay check re-runs.
const replaySamples = 6

// replayCheck re-runs a seeded sample of the 1x rung's requests, each
// alone on a fresh kernel with speculative decoding off, and compares
// their outputs with the loaded run's.
func replayCheck(w *workloadSpec, one *rungResult, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var bad []string
	for _, i := range rng.Perm(len(one.outcomes))[:replaySamples] {
		o := one.outcomes[i]
		req := o.req
		req.due = 0
		r, err := runRung(w, []request{req}, false, nil)
		if err != nil {
			return append(bad, err.Error())
		}
		alone := r.outcomes[0]
		if alone.status != o.status || alone.output != o.output {
			bad = append(bad, fmt.Sprintf("request %d: loaded run %s %q..., alone %s %q...",
				i, o.status, clip(o.output), alone.status, clip(alone.output)))
		}
	}
	return bad
}

func clip(s string) string { return s[:min(len(s), 40)] }

// traced reports the per-layer metrics of the 1x rung. It alternates
// untraced runs with runs that attach the kernel tracer and a CPU
// profile until --seconds are spent, then writes the artifacts.
func traced(o options, stdout io.Writer) (*report, error) {
	w := o.workload
	start := time.Now()
	reqs := rungRequests(w.schedule(o.seed), w.n1, w.nominal)
	one, err := runRung(w, reqs, true, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: len(one.outcomes), failed: one.failed()}
	rep.check("rung 1.00x", one.checks())
	var plain, withTrace []float64
	cpu := map[string]float64{}
	var firstTrace *trace.Tracer
	var firstProfile []byte
	profiles := 0
	for time.Since(start).Seconds() < o.seconds || firstTrace == nil {
		r, err := runRung(w, reqs, true, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r.simWall.Seconds())
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		tr := trace.New()
		r, err = runRung(w, reqs, true, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if r.virtual() != one.virtual() {
			rep.problems = append(rep.problems, "traced run diverged from the untraced run")
		}
		withTrace = append(withTrace, r.simWall.Seconds())
		shares, err := bucketCPU(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for b, v := range shares {
			cpu[b] += v
		}
		profiles++
		if firstTrace == nil {
			firstTrace, firstProfile = tr, prof.Bytes()
		}
	}
	layers := layerCounters(one)
	layers = append(layers, jobShares(firstTrace)...)
	for _, b := range cpuBuckets {
		layers = append(layers, metric{name: "cpu." + b, unit: "share", value: cpu[b] / float64(profiles), n: profiles})
	}
	layers = append(layers, metric{name: "trace_overhead_frac", unit: "ratio",
		value: median(withTrace)/median(plain) - 1, n: len(plain)})
	rep.metrics = layers
	if err := writeArtifacts(o, firstTrace, firstProfile, layers); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d traced: artifacts in %s\n", w.name, o.seed, o.out)
	return rep, nil
}

// writeArtifacts stores the Chrome trace, the CPU profile and the
// per-layer table of a traced run.
func writeArtifacts(o options, t *trace.Tracer, profile []byte, ms []metric) error {
	dir := filepath.Join(o.out, o.workload.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var chrome bytes.Buffer
	if err := t.WriteChrome(&chrome); err != nil {
		return err
	}
	var table bytes.Buffer
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		fmt.Fprintf(&table, "%-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return errors.Join(
		os.WriteFile(filepath.Join(dir, "trace.json"), chrome.Bytes(), 0o644),
		os.WriteFile(filepath.Join(dir, "cpu.pprof"), profile, 0o644),
		os.WriteFile(filepath.Join(dir, "layers.txt"), table.Bytes(), 0o644),
	)
}
