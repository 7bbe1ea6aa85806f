// Package simclock implements a discrete-event virtual clock that a set of
// cooperating goroutines ("actors") share.
//
// Symphony is a serving system whose interesting behaviour is temporal:
// batching windows, queueing delay, network round trips, GPU kernel time.
// Running those against the wall clock would make experiments slow and
// non-deterministic, so every timed operation in this repository goes
// through a Clock instead. Actors are ordinary goroutines registered with
// Go; whenever every actor is parked (sleeping, or waiting on an Event or
// Queue), the clock jumps to the earliest pending timer. Simulated days
// complete in milliseconds and every run is reproducible.
//
// Rules for actors:
//
//   - An actor may block only through clock primitives (Sleep, Event.Wait,
//     Queue.Get, WaitGroup.Wait). Blocking on a raw channel hides the actor
//     from the scheduler and stalls virtual time.
//   - Compute performed between clock calls is modelled as instantaneous.
//     Code that wants to charge for CPU time must Sleep explicitly.
//
// A Clock created with NewRealtime additionally paces virtual time against
// the wall clock, which makes interactive demos watchable while reusing the
// exact same machinery.
package simclock

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrShutdown is returned from blocking operations when the clock has been
// shut down. Actors should treat it as a request to return promptly.
var ErrShutdown = errors.New("simclock: clock shut down")

// Clock is a discrete-event simulation clock. The zero value is not usable;
// construct with New or NewRealtime.
type Clock struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on quiescence and shutdown

	now    time.Duration
	busy   int  // actors currently runnable
	actors int  // actors started and not yet finished
	down   bool // Shutdown called

	timers timerHeap
	parked map[chan struct{}]string // parked wake channels -> description

	// realtime pacing: virtual time advances no faster than wall time
	// divided by speedup. speedup <= 0 disables pacing.
	speedup   float64
	wallStart time.Time

	nextTimerID uint64
	actorSeq    uint64
	names       map[uint64]string // live actors, for Snapshot
	downCh      chan struct{}     // closed by Shutdown; interrupts pacing
}

// New returns a pure virtual-time clock starting at time zero.
func New() *Clock {
	c := &Clock{
		parked: make(map[chan struct{}]string),
		names:  make(map[uint64]string),
		downCh: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// NewRealtime returns a clock that advances virtual time at most speedup
// times faster than the wall clock (speedup 1 means real time). All other
// semantics match New.
func NewRealtime(speedup float64) *Clock {
	c := New()
	if speedup <= 0 {
		speedup = 1
	}
	c.speedup = speedup
	c.wallStart = time.Now()
	return c
}

// Now reports the current virtual time as an offset from the start of the
// simulation.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Go starts fn as a new actor. It may be called from inside or outside an
// actor; the new actor is accounted runnable before Go returns, so the
// clock cannot advance past the present before fn begins. The name is used
// only for diagnostics.
//
// fn itself starts when the actor's zero-delay spawn timer fires, which
// serializes startup in Go-call order: the child runs after the spawning
// actor parks, never concurrently with it. Together with the deferred
// wakes in Event.Fire and Queue.Put this keeps at most one actor running
// at a time, so identically-seeded simulations interleave — and therefore
// decide — identically, regardless of OS goroutine scheduling.
func (c *Clock) Go(name string, fn func()) {
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return
	}
	c.actorSeq++
	id := c.actorSeq
	c.names[id] = name
	c.busy++
	c.actors++
	ch := make(chan struct{})
	c.nextTimerID++
	c.timers.push(timerEntry{at: c.now, seq: c.nextTimerID, ch: ch})
	c.parkLocked(ch, "spawn "+name)
	c.mu.Unlock()

	go func() {
		<-ch
		defer func() {
			c.mu.Lock()
			delete(c.names, id)
			c.busy--
			c.actors--
			c.maybeAdvanceLocked()
			c.mu.Unlock()
		}()
		fn()
	}()
}

// Sleep parks the calling actor for d of virtual time. A non-positive d
// yields without advancing time. Sleep returns ErrShutdown if the clock is
// shut down before or during the sleep.
func (c *Clock) Sleep(d time.Duration) error {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return ErrShutdown
	}
	ch := make(chan struct{})
	c.nextTimerID++
	c.timers.push(timerEntry{at: c.now + d, seq: c.nextTimerID, ch: ch})
	c.parkLocked(ch, "sleep")
	c.mu.Unlock()
	<-ch
	c.mu.Lock()
	down := c.down
	c.mu.Unlock()
	if down {
		return ErrShutdown
	}
	return nil
}

// WaitQuiescent blocks until every actor is parked with no pending timers
// (i.e. virtual time can no longer advance on its own), or until Shutdown.
// It must be called from outside any actor. The typical benchmark shape is:
// spawn a workload-generating actor, WaitQuiescent, read metrics, Shutdown.
func (c *Clock) WaitQuiescent() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.down && !(c.busy == 0 && c.timers.Len() == 0) {
		c.cond.Wait()
	}
}

// Shutdown wakes every parked actor with ErrShutdown and makes all future
// blocking operations fail fast. It is idempotent.
func (c *Clock) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	c.down = true
	close(c.downCh)
	chans := make([]chan struct{}, 0, len(c.parked))
	for ch := range c.parked {
		//lint:allow maporder shutdown wake order is immaterial; every parked actor fails fast with ErrShutdown
		chans = append(chans, ch)
	}
	// wakeLocked keeps the busy count consistent with the actor-exit path.
	for _, ch := range chans {
		c.wakeLocked(ch)
	}
	c.timers = nil
	c.cond.Broadcast()
}

// Down reports whether Shutdown has been called.
func (c *Clock) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// Snapshot describes the instantaneous state of the clock, for debugging
// stalled simulations.
type Snapshot struct {
	Now          time.Duration
	Busy         int
	Actors       int
	PendingTimer int
	Parked       []string
	LiveActors   []string
}

// Snapshot returns a diagnostic view of the clock.
func (c *Clock) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Now:          c.now,
		Busy:         c.busy,
		Actors:       c.actors,
		PendingTimer: c.timers.Len(),
	}
	for _, why := range c.parked {
		s.Parked = append(s.Parked, why)
	}
	for _, name := range c.names {
		s.LiveActors = append(s.LiveActors, name)
	}
	sort.Strings(s.Parked)
	sort.Strings(s.LiveActors)
	return s
}

func (s Snapshot) String() string {
	return fmt.Sprintf("simclock{now=%v busy=%d actors=%d timers=%d parked=%v live=%v}",
		s.Now, s.Busy, s.Actors, s.PendingTimer, s.Parked, s.LiveActors)
}

// parkLocked registers ch as a parked actor wake channel and gives up the
// caller's runnable slot. The caller must hold c.mu, and after unlocking
// must receive from ch. Whoever wakes the channel (timer advance, Event
// fire, Queue put, or Shutdown) restores the runnable slot before closing.
func (c *Clock) parkLocked(ch chan struct{}, why string) {
	c.parked[ch] = why
	c.busy--
	if c.busy < 0 {
		panic("simclock: park from non-actor goroutine (busy underflow)")
	}
	c.maybeAdvanceLocked()
}

// wakeSoonLocked schedules a zero-delay wake for the parked actor behind
// ch. Routing wakes through the timer heap instead of waking directly is
// what makes the simulation deterministic: actors woken at the same
// virtual instant (an event firing to many waiters, a batch completing)
// run one at a time in wake order — via maybeAdvanceLocked's
// one-timer-per-advance policy — rather than racing on the OS scheduler.
// The caller must hold c.mu.
func (c *Clock) wakeSoonLocked(ch chan struct{}) {
	c.nextTimerID++
	c.timers.push(timerEntry{at: c.now, seq: c.nextTimerID, ch: ch})
	// If the waker is not an actor (an HTTP goroutine, a test) every actor
	// may already be parked, so the wake must advance the clock itself.
	c.maybeAdvanceLocked()
}

// wakeLocked transfers a runnable slot to the parked actor behind ch and
// wakes it, reporting whether the channel was still parked. Stale wakes
// (an actor already woken through its other registration, e.g. an event
// with a timeout) are no-ops. The caller must hold c.mu.
func (c *Clock) wakeLocked(ch chan struct{}) bool {
	if _, ok := c.parked[ch]; !ok {
		return false // already woken or shut down
	}
	delete(c.parked, ch)
	c.busy++
	close(ch)
	return true
}

// maybeAdvanceLocked advances virtual time to the earliest timer whenever no
// actor is runnable. Exactly one timer is woken per advance, so actors whose
// timers share a deadline run in registration order rather than racing. It
// also broadcasts quiescence. Caller must hold c.mu.
func (c *Clock) maybeAdvanceLocked() {
	for !c.down && c.busy == 0 && c.timers.Len() > 0 {
		next := c.timers[0].at
		if c.speedup > 0 && next > c.now {
			// Pace against the wall clock. Nothing can become runnable
			// while busy==0 except via an external (non-actor) wake, so
			// re-check after sleeping. Shutdown interrupts the wait.
			wait := time.Duration(float64(next-c.now) / c.speedup)
			c.mu.Unlock()
			select {
			case <-time.After(wait):
			case <-c.downCh:
			}
			c.mu.Lock()
			if c.down || c.busy != 0 || c.timers.Len() == 0 || c.timers[0].at != next {
				continue
			}
		}
		c.now = next
		e := c.timers.pop()
		if c.wakeLocked(e.ch) {
			return
		}
		// Stale entry (its actor was woken through another registration);
		// keep advancing.
	}
	if c.busy == 0 && c.timers.Len() == 0 {
		c.cond.Broadcast()
	}
}

type timerEntry struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for equal deadlines
	ch  chan struct{}
}

// timerHeap is a binary min-heap of timers ordered by (at, seq). The
// order is strict and total (seq is unique), so timers pop in the same
// order whatever the heap's shape. Typed push and pop keep the 32-byte
// entries out of interface boxes.
type timerHeap []timerEntry

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push adds e to the heap.
func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes and returns the earliest timer. The heap must not be empty.
func (h *timerHeap) pop() timerEntry {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = timerEntry{} // drop the channel reference
	q = q[:n]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q
	return top
}
