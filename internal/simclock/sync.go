package simclock

import "time"

// Event is a one-shot, broadcast synchronization point on a Clock. Any
// number of actors may Wait; the first Fire wakes them all, and Waits after
// the Fire return immediately. Events are how actors hand results to each
// other without hiding from the scheduler.
type Event struct {
	c       *Clock
	fired   bool
	waiters []chan struct{}
}

// NewEvent returns an unfired event bound to the clock.
func (c *Clock) NewEvent() *Event {
	return &Event{c: c}
}

// Wait parks the calling actor until the event fires. It returns
// ErrShutdown if the clock is shut down first.
func (e *Event) Wait() error {
	c := e.c
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return ErrShutdown
	}
	if e.fired {
		c.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	e.waiters = append(e.waiters, ch)
	c.parkLocked(ch, "event")
	c.mu.Unlock()
	<-ch
	c.mu.Lock()
	down := c.down && !e.fired
	c.mu.Unlock()
	if down {
		return ErrShutdown
	}
	return nil
}

// WaitFor parks the calling actor until the event fires or d of virtual
// time elapses, whichever comes first. It reports whether the event had
// fired by the time the actor woke. The unfired-timer or unfired-event
// registration left behind is harmless: waking an already-woken channel is
// a no-op.
func (e *Event) WaitFor(d time.Duration) (fired bool, err error) {
	if d < 0 {
		d = 0
	}
	c := e.c
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return false, ErrShutdown
	}
	if e.fired {
		c.mu.Unlock()
		return true, nil
	}
	ch := make(chan struct{})
	e.waiters = append(e.waiters, ch)
	c.nextTimerID++
	c.timers.push(timerEntry{at: c.now + d, seq: c.nextTimerID, ch: ch})
	c.parkLocked(ch, "event-timeout")
	c.mu.Unlock()
	<-ch
	c.mu.Lock()
	fired = e.fired
	down := c.down && !fired
	c.mu.Unlock()
	if down {
		return false, ErrShutdown
	}
	return fired, nil
}

// Fire wakes all current and future waiters. Firing more than once is a
// no-op. Fire never blocks and may be called from any goroutine. Waiters
// wake one at a time in Wait order (zero-delay timers, not direct wakes),
// so a fan-out fire cannot make the woken actors race each other.
func (e *Event) Fire() {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.fired || c.down {
		return
	}
	e.fired = true
	for _, ch := range e.waiters {
		c.wakeSoonLocked(ch)
	}
	e.waiters = nil
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool {
	e.c.mu.Lock()
	defer e.c.mu.Unlock()
	return e.fired
}

// Queue is an unbounded FIFO connecting actors, the simulation-aware
// equivalent of a buffered channel. Multiple producers and consumers are
// allowed.
type Queue[T any] struct {
	c       *Clock
	items   []T
	waiters []chan struct{}
}

// NewQueue returns an empty queue bound to clock c.
func NewQueue[T any](c *Clock) *Queue[T] {
	return &Queue[T]{c: c}
}

// Put appends v and wakes one waiting consumer, if any. Put never blocks.
func (q *Queue[T]) Put(v T) {
	c := q.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		ch := q.waiters[0]
		q.waiters = q.waiters[1:]
		c.wakeSoonLocked(ch)
	}
}

// PushFront prepends v, so the next Get returns it before older items.
// Schedulers use it to requeue work that exceeded a batch budget without
// losing FIFO order. Like Put it wakes one waiting consumer.
func (q *Queue[T]) PushFront(v T) {
	c := q.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	q.items = append([]T{v}, q.items...)
	if len(q.waiters) > 0 {
		ch := q.waiters[0]
		q.waiters = q.waiters[1:]
		c.wakeSoonLocked(ch)
	}
}

// Get removes and returns the oldest item, parking the calling actor while
// the queue is empty. It returns ErrShutdown if the clock shuts down.
func (q *Queue[T]) Get() (T, error) {
	c := q.c
	c.mu.Lock()
	for {
		if c.down {
			c.mu.Unlock()
			var zero T
			return zero, ErrShutdown
		}
		if len(q.items) > 0 {
			v := q.items[0]
			q.items = q.items[1:]
			c.mu.Unlock()
			return v, nil
		}
		ch := make(chan struct{})
		q.waiters = append(q.waiters, ch)
		c.parkLocked(ch, "queue")
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
}

// TryGet removes and returns the oldest item without blocking. The second
// result reports whether an item was available.
func (q *Queue[T]) TryGet() (T, bool) {
	c := q.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Drain removes and returns all queued items without blocking.
func (q *Queue[T]) Drain() []T {
	c := q.c
	c.mu.Lock()
	defer c.mu.Unlock()
	out := q.items
	q.items = nil
	return out
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	c := q.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(q.items)
}

// WaitGroup is the simulation-aware analogue of sync.WaitGroup, used by
// actors to join on a set of child actors.
type WaitGroup struct {
	c    *Clock
	n    int
	done *Event
}

// NewWaitGroup returns a WaitGroup with a zero counter.
func (c *Clock) NewWaitGroup() *WaitGroup {
	return &WaitGroup{c: c, done: c.NewEvent()}
}

// Add adjusts the counter by delta. The counter must not go negative.
func (w *WaitGroup) Add(delta int) {
	w.c.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.c.mu.Unlock()
		panic("simclock: negative WaitGroup counter")
	}
	fire := w.n == 0
	w.c.mu.Unlock()
	if fire {
		w.done.Fire()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the calling actor until the counter reaches zero. A WaitGroup
// is single-use: after the counter first reaches zero Wait always returns
// immediately.
func (w *WaitGroup) Wait() error { return w.done.Wait() }
