package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestSameSeedSameRun pins byte-determinism: equal seeds give identical
// virtual timings, counters and output digest.
func TestSameSeedSameRun(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		reqs := rungRequests(w.schedule(3), 60, w.nominal)
		a, err := runRung(w, reqs, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRung(w, reqs, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.virtual() != b.virtual() || a.digest() != b.digest() {
			t.Errorf("%s: equal seeds diverged: virtual %s/%s digest %s/%s",
				name, a.virtual(), b.virtual(), a.digest(), b.digest())
		}
		if !reflect.DeepEqual(counterValues(a), counterValues(b)) {
			t.Errorf("%s: equal seeds gave different layer counters", name)
		}
	}
}

// counterValues returns the deterministic per-layer counters (everything
// but the wall-clock submit timers).
func counterValues(r *rungResult) []float64 {
	var out []float64
	for _, m := range layerCounters(r) {
		if !strings.HasPrefix(m.name, "server.submit_us") {
			out = append(out, m.value)
		}
	}
	return out
}

func TestDifferentSeedDifferentArrivals(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := w.schedule(1), w.schedule(2)
		if a[0].due == b[0].due && bytes.Equal(a[0].body, b[0].body) {
			t.Errorf("%s: seeds 1 and 2 drew the same first request", name)
		}
		if !reflect.DeepEqual(w.schedule(1), a) {
			t.Errorf("%s: seed 1 drew two different schedules", name)
		}
	}
}

func TestLadderStopsAtFirstFailingRung(t *testing.T) {
	w := &workloadSpec{nominal: 10}
	for _, tc := range []struct {
		failFrom float64 // first failing multiple
		ran      []float64
		rate     float64
	}{
		{failFrom: 9, ran: ladder, rate: 15},
		{failFrom: 1.25, ran: []float64{0.5, 0.75, 1, 1.25}, rate: 10},
		{failFrom: 0.75, ran: []float64{0.5, 0.75, 1}, rate: 5}, // 1x still runs
		{failFrom: 0.5, ran: []float64{0.5, 1}, rate: 0},
	} {
		var ran []float64
		rate, err := climb(w, func(m float64) (bool, error) {
			ran = append(ran, m)
			return m < tc.failFrom, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ran, tc.ran) || rate != tc.rate {
			t.Errorf("fail from %gx: ran %v rate %g, want %v rate %g", tc.failFrom, ran, rate, tc.ran, tc.rate)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that every metric the program
// prints is well named and listed in BENCHMARK.json, and the reverse.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil || workloads[w.Name].why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the program disagree", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	one := &rungResult{w: workloads["rag-fork"], outcomes: []*outcome{{code: 202, status: "done", tokens: 1}}}
	e2e := endToEnd(one, 1, &report{attempted: 1}, &wallSamples{})
	layers := append(layerCounters(one), jobShares(trace.New())...)
	for _, b := range cpuBuckets {
		layers = append(layers, metric{name: "cpu." + b, unit: "share"})
	}
	layers = append(layers, metric{name: "trace_overhead_frac", unit: "ratio"})
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, set := range []struct {
		printed []metric
		listed  []struct{ Name, Unit string }
	}{{e2e, spec.EndToEnd}, {layers, spec.PerLayer}} {
		var got, want []string
		for _, m := range set.printed {
			got = append(got, m.name+" "+m.unit)
			if !valid.MatchString(m.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
			}
		}
		for _, m := range set.listed {
			want = append(want, m.Name+" "+m.Unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("printed metrics\n%v\nBENCHMARK.json lists\n%v", got, want)
		}
	}
}

// TestWorkloadsEngageTheirLayers runs each workload's 1x rung and checks
// that it exercises the layers it was chosen for.
func TestWorkloadsEngageTheirLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three 1x rungs")
	}
	value := func(r *rungResult, name string) float64 {
		for _, m := range layerCounters(r) {
			if m.name == name {
				return m.value
			}
		}
		t.Fatalf("no metric %s", name)
		return 0
	}
	for _, tc := range []struct {
		workload string
		check    func(r *rungResult) bool
		want     string
	}{
		{"rag-fork", func(r *rungResult) bool {
			return value(r, "migrate.moves") > 0 && value(r, "sched.spec_rounds") > 0 && value(r, "kvd.offloads") == 0
		}, "migrate.moves > 0, sched.spec_rounds > 0, kvd.offloads = 0"},
		{"prompt-lanes", func(r *rungResult) bool {
			return value(r, "sched.lane.interactive.delay_p99_ms") < value(r, "sched.lane.batch.delay_p99_ms") &&
				value(r, "sched.steps") > 0 && value(r, "kvfs.forks") == 0
		}, "interactive lane delay p99 < batch lane delay p99, no forks"},
		{"agent-tools", func(r *rungResult) bool {
			return value(r, "kvd.offloads") > 0 && value(r, "kvd.restores") > 0 && value(r, "core.tool_calls") > 0
		}, "kvd.offloads > 0, kvd.restores > 0, core.tool_calls > 0"},
	} {
		w := workloads[tc.workload]
		r, err := runRung(w, rungRequests(w.schedule(1), w.n1, w.nominal), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bad := r.checks(); len(bad) > 0 {
			t.Errorf("%s: output checks failed: %v", tc.workload, bad)
		}
		if !tc.check(r) {
			var b strings.Builder
			for _, m := range layerCounters(r) {
				fmt.Fprintf(&b, "%s=%g ", m.name, m.value)
			}
			t.Errorf("%s: want %s; counters: %s", tc.workload, tc.want, b.String())
		}
	}
}

// TestBucketCPU profiles a little work and checks that the hand-written
// profile decoder reads it and the shares add up to one.
func TestBucketCPU(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	w := workloads["rag-fork"]
	_, err := runRung(w, rungRequests(w.schedule(1), 100, w.nominal), true, nil)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := bucketCPU(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g: %v", sum, shares)
	}
	if shares["model"] == 0 {
		t.Errorf("no model time in a rag-fork profile: %v", shares)
	}
}
