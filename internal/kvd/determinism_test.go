package kvd_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/simclock"
)

// offloadDecisions runs one tie-heavy reclaim pass — every candidate has
// identical recency and frequency, so the choice of victims rests
// entirely on the daemon's deterministic tie-breaks (registration seq) —
// and returns, per file in creation order, whether it was offloaded.
func offloadDecisions(t *testing.T) []bool {
	t.Helper()
	clk := simclock.New()
	fs := newFS(256) // 16 pages
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru", HighWater: 0.75, LowWater: 0.5})
	var files []*kvfs.File
	for i := 0; i < 8; i++ {
		f := fs.CreateAnon("u")
		fill(t, f, 32) // 2 pages each: 16/16 pages used
		d.Track(f, i%3, nil)
		files = append(files, f)
	}
	if d.MaybeReclaim() == 0 {
		t.Fatal("expected a reclaim pass above high water")
	}
	out := make([]bool, len(files))
	for i, f := range files {
		gpu, _, _ := f.ResidentTokens()
		out[i] = gpu == 0
	}
	return out
}

// TestReclaimDecisionsDeterministic is the regression test for the
// sorted map scans in candidatesLocked: with all candidates tied, any
// map-iteration-order leak into the victim choice shows up as run-to-run
// variation. Every identically-configured run must offload exactly the
// same files.
func TestReclaimDecisionsDeterministic(t *testing.T) {
	first := offloadDecisions(t)
	offloaded := 0
	for _, o := range first {
		if o {
			offloaded++
		}
	}
	if offloaded == 0 || offloaded == len(first) {
		t.Fatalf("offload vector %v is not tie-sensitive (want a strict subset evicted)", first)
	}
	for run := 1; run < 20; run++ {
		if got := offloadDecisions(t); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d offloaded %v, first run offloaded %v", run, got, first)
		}
	}
}

// TestNoteParkNotifyDeterministic pins NotePark's choice of notify
// channel: with several tracked files for one process, the
// lowest-registration-seq file's callback must fire on every run.
func TestNoteParkNotifyDeterministic(t *testing.T) {
	for run := 0; run < 20; run++ {
		clk := simclock.New()
		fs := newFS(256)
		d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})
		var fired []int
		for i := 0; i < 6; i++ {
			i := i
			f := fs.CreateAnon("u")
			fill(t, f, 16)
			d.Track(f, 7, func(kvd.Event) { fired = append(fired, i) })
		}
		d.NotePark(7)
		if len(fired) != 1 || fired[0] != 0 {
			t.Fatalf("run %d: notified files %v, want exactly the first-tracked file", run, fired)
		}
	}
}

// spillEvent is one daemon event as TestSpillCascadeGolden records it:
// the phase, the index of the file it concerns, and the tokens moved.
type spillEvent struct {
	Phase  string
	File   int
	Tokens int
}

// spillTrace cascades demotion GPU→host→disk under policy — skewed reuse
// and staggered idle times so the policies disagree on victims — drives
// Reclaim and Preempt as well as MaybeReclaim, then fails one snapshot
// commit so the pending spills roll back. It returns every daemon event
// in delivery order.
func spillTrace(t *testing.T, policy string) []spillEvent {
	t.Helper()
	const bpt = 1 << 10
	clk := simclock.New()
	fs := kvfs.NewFS(kvfs.Config{
		PageTokens:    16,
		GPUBytes:      256 * bpt,
		HostBytes:     512 * bpt,
		DiskBytes:     4096 * bpt,
		BytesPerToken: bpt,
	})
	inj := chaos.New(nil, 1)
	ffs := chaos.NewFaultFS(kvstore.NewSimFS(nil, model.CostModel{}), inj)
	dt := kvfs.NewDiskTier(fs, kvstore.NewStore(ffs))
	d := newDaemon(t, clk, fs, kvd.Config{
		Policy: policy, HighWater: 0.5, LowWater: 0.25,
		DiskHighWater: 0.5, DiskLowWater: 0.25,
	})
	d.AttachDisk(dt)

	var evs []spillEvent
	var files []*kvfs.File
	for i, n := range []int{64, 16, 48, 32, 64, 16, 48, 32, 64, 32} {
		i := i
		f := fs.CreateAnon("u")
		fill(t, f, n)
		d.Track(f, 1+i%3, func(ev kvd.Event) {
			evs = append(evs, spillEvent{ev.Phase, i, ev.Tokens})
		})
		files = append(files, f)
		for j := 0; j <= i%3; j++ {
			d.Touch(files[i/2])
		}
		advance(t, clk, time.Duration(1+i%3)*time.Millisecond)
		d.MaybeReclaim()
	}
	d.Reclaim(64)
	d.Preempt(files[len(files)-1])
	if st := d.Stats(); st.Spills == 0 {
		t.Fatalf("%s: no spills to pin: %+v", policy, st)
	}
	inj.Arm(chaos.Rule{Point: "file.sync", Err: true})
	if err := dt.Commit(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("%s: commit err = %v, want the injected sync failure", policy, err)
	}
	return evs
}

// TestSpillCascadeGolden pins the host→disk leg of demotion: the ordered
// offload, spill and spill-rollback events of one cascade per policy must
// match the literals below. No quick sweep ever spills, so these literals
// are the regression oracle for that leg.
func TestSpillCascadeGolden(t *testing.T) {
	want := map[string][]spillEvent{
		"lru": {
			{"offload", 0, 64}, {"offload", 1, 16}, {"offload", 3, 32}, {"offload", 2, 48},
			{"offload", 4, 64}, {"offload", 5, 16}, {"offload", 6, 48}, {"offload", 7, 32},
			{"spill", 0, 64}, {"spill", 1, 16}, {"spill", 2, 48}, {"spill", 5, 16},
			{"spill", 6, 48}, {"offload", 8, 64}, {"offload", 9, 32}, {"spill-rollback", 0, 64},
			{"spill-rollback", 1, 16}, {"spill-rollback", 2, 48}, {"spill-rollback", 5, 16}, {"spill-rollback", 6, 48},
		},
		"lfu": {
			{"offload", 2, 48}, {"offload", 0, 64}, {"offload", 3, 32}, {"offload", 4, 64},
			{"offload", 5, 16}, {"offload", 6, 48}, {"offload", 7, 32}, {"offload", 8, 64},
			{"spill", 5, 16}, {"spill", 6, 48}, {"spill", 7, 32}, {"spill", 8, 64},
			{"spill", 0, 64}, {"spill", 3, 32}, {"offload", 9, 32}, {"offload", 1, 16},
			{"spill-rollback", 5, 16}, {"spill-rollback", 6, 48}, {"spill-rollback", 7, 32}, {"spill-rollback", 8, 64},
			{"spill-rollback", 0, 64}, {"spill-rollback", 3, 32},
		},
		"cost-aware": {
			{"offload", 2, 48}, {"offload", 1, 16}, {"offload", 3, 32}, {"offload", 4, 64},
			{"offload", 5, 16}, {"offload", 0, 64}, {"offload", 7, 32}, {"offload", 6, 48},
			{"spill", 5, 16}, {"spill", 7, 32}, {"spill", 1, 16}, {"spill", 6, 48},
			{"spill", 0, 64}, {"spill", 3, 32}, {"offload", 8, 64}, {"offload", 9, 32},
			{"spill-rollback", 5, 16}, {"spill-rollback", 7, 32}, {"spill-rollback", 1, 16}, {"spill-rollback", 6, 48},
			{"spill-rollback", 0, 64}, {"spill-rollback", 3, 32},
		},
	}
	for _, policy := range []string{"lru", "lfu", "cost-aware"} {
		got := spillTrace(t, policy)
		if !reflect.DeepEqual(got, want[policy]) {
			t.Errorf("%s events:\n got %v\nwant %v", policy, got, want[policy])
		}
	}
}
