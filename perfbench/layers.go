package main

import (
	"net/http"
	"time"

	"repro/internal/trace"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value; 0 for counters
}

// layerCounters reads the per-layer counters of one rung from each
// layer's public Stats and from the benchmark's own submit timers.
func layerCounters(r *rungResult) []metric {
	st := r.stats
	s := st.Sched
	var submits []float64
	refused := 0
	for _, o := range r.outcomes {
		submits = append(submits, float64(o.submit)/float64(time.Microsecond))
		if o.code != http.StatusAccepted {
			refused++
		}
	}
	imbalance := 0.0
	if len(s.Replicas) > 0 {
		var sum, top int64
		for _, rs := range s.Replicas {
			sum += rs.Calls
			top = max(top, rs.Calls)
		}
		if sum > 0 {
			imbalance = float64(top) / (float64(sum) / float64(len(s.Replicas)))
		}
	}
	lane := func(name string) float64 {
		for _, l := range s.Lanes {
			if l.Lane == name {
				return ms(l.DelayP99)
			}
		}
		return 0
	}
	m := st.Migration
	kv := st.KVD
	return []metric{
		{name: "server.submit_us_p50", unit: "us", value: percentile(submits, 0.5), n: len(submits)},
		{name: "server.submit_us_p99", unit: "us", value: percentile(submits, 0.99), n: len(submits)},
		{name: "server.refused", unit: "count", value: float64(refused)},
		{name: "core.preds_per_job", unit: "count", value: ratio(st.PredCalls, st.Processes)},
		{name: "core.tool_calls", unit: "count", value: float64(st.ToolCalls)},
		{name: "core.restore_ms", unit: "ms", value: ms(st.RestoreTime)},
		{name: "migrate.moves", unit: "count", value: float64(m.Migrations)},
		{name: "migrate.cold_starts", unit: "count", value: float64(m.ColdStarts)},
		{name: "migrate.fabric_ms", unit: "ms", value: ms(m.MigrateTime)},
		{name: "migrate.refused", unit: "count", value: float64(m.RefusedLocked + m.RefusedInFlight + m.RefusedPressure)},
		{name: "dispatch.imbalance", unit: "ratio", value: imbalance},
		{name: "sched.util", unit: "ratio", value: s.Utilization},
		{name: "sched.avg_batch", unit: "count", value: s.AvgBatch},
		{name: "sched.steps", unit: "count", value: float64(s.Steps)},
		{name: "sched.gpu_busy_ms", unit: "ms", value: ms(s.GPUBusy)},
		{name: "sched.lane.interactive.delay_p99_ms", unit: "ms", value: lane("interactive")},
		{name: "sched.lane.batch.delay_p99_ms", unit: "ms", value: lane("batch")},
		{name: "sched.preemptions", unit: "count", value: float64(s.Preemptions)},
		{name: "sched.spec_rounds", unit: "count", value: float64(s.SpecRounds)},
		{name: "sched.spec_accept", unit: "ratio", value: ratio(s.SpecAccepted, s.SpecDrafted)},
		{name: "sched.admit_deferred", unit: "count", value: float64(s.AdmitDeferred)},
		{name: "sched.admit_wait_ms", unit: "ms", value: ms(s.AdmitWait)},
		{name: "sched.exec_ratio", unit: "ratio", value: ratio(s.ExecutedTokens, s.Tokens+s.LostTokens)},
		{name: "kvd.reclaims", unit: "count", value: float64(kv.Reclaims)},
		{name: "kvd.offloads", unit: "count", value: float64(kv.Offloads)},
		{name: "kvd.offloaded_tokens", unit: "count", value: float64(kv.OffloadedTokens)},
		{name: "kvd.restores", unit: "count", value: float64(kv.Restores)},
		{name: "kvd.restored_tokens", unit: "count", value: float64(kv.RestoredTokens)},
		{name: "kvd.restore_ms", unit: "ms", value: ms(kv.RestoredCost)},
		{name: "kvd.swap_restores", unit: "count", value: float64(kv.SwapRestores)},
		{name: "kvd.preemptions", unit: "count", value: float64(kv.Preemptions)},
		{name: "kvd.refault_ratio", unit: "ratio", value: ratio(kv.Restores, kv.Offloads)},
		{name: "kvfs.gpu_peak_frac", unit: "ratio", value: ratio(int64(st.FS.GPUPeakPages), int64(st.FS.GPUPageCap))},
		{name: "kvfs.forks", unit: "count", value: float64(st.FS.Forks)},
		{name: "kvfs.cow_copies", unit: "count", value: float64(st.FS.COWCopies)},
		{name: "kvfs.oom", unit: "count", value: float64(st.FS.OOMErrors)},
	}
}

// jobShares splits the traced processes' virtual time into pred
// syscalls, tool waits and everything else (lock waits, restores outside
// a pred, interpreter bookkeeping).
func jobShares(t *trace.Tracer) []metric {
	var proc, pred, tool time.Duration
	for _, e := range t.Events() {
		switch e.Kind {
		case trace.KindProcess:
			proc += e.Dur
		case trace.KindPred:
			pred += e.Dur
		case trace.KindTool:
			tool += e.Dur
		}
	}
	share := func(d time.Duration) float64 { return ratio(int64(d), int64(proc)) }
	return []metric{
		{name: "job_share.pred", unit: "share", value: share(pred)},
		{name: "job_share.tool", unit: "share", value: share(tool)},
		{name: "job_share.other", unit: "share", value: share(proc - pred - tool)},
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
