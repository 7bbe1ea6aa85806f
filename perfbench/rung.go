package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// outcome is what the benchmark observed of one request.
type outcome struct {
	req    request
	code   int           // HTTP status of the submit
	submit time.Duration // wall time of the ServeHTTP submit
	proc   *core.Process
	sub    *core.Subscription

	status   core.Status
	first    time.Duration // virtual time of the first response (see ttftMS)
	end      time.Duration // virtual time of the terminal event
	tokens   int           // token events: one per generated token
	output   string
	seqBroke bool // the event stream skipped a sequence number
}

func (o *outcome) ok() bool { return o.status == core.StatusDone }

// rungResult is everything one rung measured.
type rungResult struct {
	w        *workloadSpec
	outcomes []*outcome
	start    time.Duration // virtual time arrivals began
	maxLag   time.Duration // largest generator lateness against due times
	unsent   int           // requests the generator never submitted
	// vocabGrew counts tokens interned after warm-up; nonzero means a
	// request's token IDs depended on what ran before it.
	vocabGrew int
	stats     core.Stats // kernel counters at the end of the rung

	setupWall time.Duration // deployment construction plus warm-up
	simWall   time.Duration // first arrival until quiescence
	execToks  int64         // scheduler-executed tokens after warm-up
	tokRates  []float64     // executed tokens per wall second, per window
	allocB    uint64        // bytes allocated after warm-up
	liveHeap  uint64        // live heap bytes at quiescence, after a GC
}

// runRung builds a fresh deployment, warms it, drives reqs through
// Server.ServeHTTP from one generator actor at their due times, waits for
// quiescence and collects every request's event stream.
func runRung(w *workloadSpec, reqs []request, spec bool, tracer *trace.Tracer) (*rungResult, error) {
	runtime.GC()
	res := &rungResult{w: w}
	t0 := time.Now()
	d := newDeployment(spec, tracer)
	defer d.close()
	// Submissions run inside a clock actor, as the generator's do, so
	// they are ordered in virtual time against the jobs they start.
	warmCode := http.StatusAccepted
	d.clk.Go("warm-up", func() {
		for i, body := range w.warm {
			if code, _ := submit(d, fmt.Sprintf("warmup-%02d", i), body); code != http.StatusAccepted {
				warmCode = code
			}
		}
	})
	d.clk.WaitQuiescent()
	if warmCode != http.StatusAccepted {
		return nil, fmt.Errorf("%s warm-up: submit returned %d", w.name, warmCode)
	}
	res.setupWall = time.Since(t0)
	vocab := d.kernel.Tokenizer().Vocab()
	vocabBefore := vocab.Size()
	execBefore := d.kernel.Stats().Sched.ExecutedTokens

	rates := sampleTokenRate(d)
	allocBefore := heapAllocs()
	res.start = d.clk.Now()
	res.outcomes = make([]*outcome, len(reqs))
	t1 := time.Now()
	d.clk.Go("generator", func() {
		for i, r := range reqs {
			due := res.start + r.due
			if wait := due - d.clk.Now(); wait > 0 {
				if err := d.clk.Sleep(wait); err != nil {
					return
				}
			}
			if lag := d.clk.Now() - due; lag > res.maxLag {
				res.maxLag = lag
			}
			o := &outcome{req: r}
			ts := time.Now()
			var pid int
			o.code, pid = submit(d, r.user, r.body)
			o.submit = time.Since(ts)
			if o.code == http.StatusAccepted {
				p, err := d.kernel.Process(pid)
				if err != nil {
					panic(fmt.Sprintf("accepted job %d is not live: %v", pid, err))
				}
				o.proc, o.sub = p, p.Subscribe(0)
			}
			res.outcomes[i] = o
		}
	})
	d.clk.WaitQuiescent()
	res.simWall = time.Since(t1)
	res.tokRates = rates.stop()
	res.allocB = heapAllocs() - allocBefore
	runtime.GC()
	res.liveHeap = liveHeap()
	res.stats = d.kernel.Stats()
	res.execToks = res.stats.Sched.ExecutedTokens - execBefore
	res.vocabGrew = vocab.Size() - vocabBefore
	for i, o := range res.outcomes {
		if o == nil { // the generator stopped early; the check reports it
			res.outcomes[i] = &outcome{req: reqs[i]}
			res.unsent++
			continue
		}
		o.drain()
	}
	return res, nil
}

// submit POSTs one lipscript body to /v2/programs and returns the HTTP
// status and the job's pid.
func submit(d *deployment, user string, body []byte) (int, int) {
	req := httptest.NewRequest(http.MethodPost, "/v2/programs", bytes.NewReader(body))
	req.Header.Set("X-Symphony-User", user)
	rec := httptest.NewRecorder()
	d.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		return rec.Code, 0
	}
	var job struct {
		PID int `json:"pid"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		return http.StatusInternalServerError, 0
	}
	return rec.Code, job.PID
}

// closed makes Subscription.Next return instead of blocking once the
// delivered events run out.
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// drain consumes the request's events after quiescence.
func (o *outcome) drain() {
	if o.sub == nil {
		o.status = core.StatusFailed
		return
	}
	defer o.sub.Close()
	var seq int64
	for {
		e, ok := o.sub.Next(closed)
		if !ok {
			break
		}
		if e.Seq != seq+1 {
			o.seqBroke = true
		}
		seq = e.Seq
		switch {
		case e.Kind == core.EventToken:
			if o.first == 0 {
				o.first = e.At
			}
			o.tokens++
		case e.Kind == core.EventStatement && e.Op == "generate" && e.Phase == "end" && o.first == 0:
			o.first = e.At // the first generation produced no token
		case e.Kind == core.EventStatus && e.Final:
			o.status, o.end = e.Status, e.At
		}
	}
	o.output = o.proc.Output()
	o.sub, o.proc = nil, nil
}

// ttftMS is the time to first response in virtual ms: due time to the
// first token event or, when the first generation ends without a token
// (the model drew EOS first), to its end. A request with no generation
// responds when it completes.
func (o *outcome) ttftMS(start time.Duration) float64 {
	first := o.first
	if first == 0 {
		first = o.end
	}
	return ms(first - start - o.req.due)
}

func (o *outcome) jobMS(start time.Duration) float64 { return ms(o.end - start - o.req.due) }

func (o *outcome) normMS(start time.Duration) float64 {
	return o.jobMS(start) / float64(max(o.tokens, 1))
}

func (o *outcome) meetsSLO(w *workloadSpec, start time.Duration) bool {
	return o.ok() && o.ttftMS(start) <= ms(w.sloTTFT) && o.normMS(start) <= ms(w.sloNorm)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failed counts requests that were refused or did not finish done.
func (r *rungResult) failed() int {
	n := 0
	for _, o := range r.outcomes {
		if !o.ok() {
			n++
		}
	}
	return n
}

// sloAttain is the share of non-batch requests that met the SLO.
func (r *rungResult) sloAttain() float64 {
	n, met := 0, 0
	for _, o := range r.outcomes {
		if o.req.batch {
			continue
		}
		n++
		if o.meetsSLO(r.w, r.start) {
			met++
		}
	}
	return float64(met) / float64(max(n, 1))
}

// backlogGrows reports a growing backlog: the median completion time of
// the last quarter of arrivals exceeds backlogGrowth times that of the
// second quarter (the first quarter is warm-up).
func (r *rungResult) backlogGrows() bool {
	q := len(r.outcomes) / 4
	return median(r.jobTimes(r.outcomes[3*q:])) > backlogGrowth*median(r.jobTimes(r.outcomes[q:2*q]))
}

const backlogGrowth = 1.5

// jobTimes returns completion times in ms; a failed request counts as
// never completing.
func (r *rungResult) jobTimes(os []*outcome) []float64 {
	out := make([]float64, 0, len(os))
	for _, o := range os {
		if o.ok() {
			out = append(out, o.jobMS(r.start))
		} else {
			out = append(out, inf)
		}
	}
	return out
}

// passes reports whether the rung sustains its rate.
func (r *rungResult) passes() bool { return r.sloAttain() >= sloAttain && !r.backlogGrows() }

// digest hashes every request's status and output in arrival order.
func (r *rungResult) digest() string {
	h := sha256.New()
	for i, o := range r.outcomes {
		fmt.Fprintf(h, "%d %d %s %d %q\n", i, o.code, o.status, o.tokens, o.output)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// virtual is the rung's modeled-time fingerprint: every figure that must
// repeat exactly for equal seeds.
func (r *rungResult) virtual() string {
	h := sha256.New()
	for _, o := range r.outcomes {
		fmt.Fprintf(h, "%d %d %d\n", o.first, o.end, o.tokens)
	}
	fmt.Fprintf(h, "%+v\n", r.stats.Sched.ExecutedTokens)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checks returns the output checks that failed on this rung.
func (r *rungResult) checks() []string {
	var bad []string
	if r.unsent > 0 {
		bad = append(bad, fmt.Sprintf("%d requests never submitted", r.unsent))
	}
	for i, o := range r.outcomes {
		if o.code == http.StatusAccepted && !o.status.Terminal() {
			bad = append(bad, fmt.Sprintf("request %d ended %q, not terminal", i, o.status))
		}
		if o.seqBroke {
			bad = append(bad, fmt.Sprintf("request %d lost events", i))
		}
	}
	done, failed := 0, 0
	for _, o := range r.outcomes {
		switch {
		case o.status == core.StatusDone:
			done++
		case o.code != http.StatusAccepted || o.status == core.StatusFailed || o.status == core.StatusCancelled:
			failed++
		}
	}
	if done+failed != len(r.outcomes) {
		bad = append(bad, fmt.Sprintf("attempted %d != succeeded %d + failed %d", len(r.outcomes), done, failed))
	}
	s := r.stats.Sched
	if s.ExecutedTokens != s.Tokens+s.LostTokens {
		bad = append(bad, fmt.Sprintf("ledger: executed %d != tokens %d + lost %d", s.ExecutedTokens, s.Tokens, s.LostTokens))
	}
	if r.vocabGrew != 0 {
		bad = append(bad, fmt.Sprintf("%d tokens outside the lexicon", r.vocabGrew))
	}
	if r.maxLag != 0 {
		bad = append(bad, fmt.Sprintf("generator lag %v", r.maxLag))
	}
	return bad
}

// heapAllocs reads cumulative heap allocation bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rateSampler reads the scheduler's executed-token counter every
// rateWindow from one goroutine while a rung runs. The median of the
// per-window rates shrugs off a stall of the host that a whole-run
// average would absorb.
type rateSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	rates []float64
}

const rateWindow = 250 * time.Millisecond

func sampleTokenRate(d *deployment) *rateSampler {
	s := &rateSampler{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(rateWindow)
		defer tick.Stop()
		last, lastAt := d.kernel.Scheduler().Stats().ExecutedTokens, time.Now()
		for {
			select {
			case <-s.stopc:
				return
			case now := <-tick.C:
				n := d.kernel.Scheduler().Stats().ExecutedTokens
				s.rates = append(s.rates, float64(n-last)/now.Sub(lastAt).Seconds())
				last, lastAt = n, now
			}
		}
	}()
	return s
}

// stop ends sampling and returns the per-window rates.
func (s *rateSampler) stop() []float64 {
	close(s.stopc)
	s.wg.Wait()
	return s.rates
}

var inf = 1e300

// percentile returns the q-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
