// Package des is a minimal discrete-event simulation kernel: a clock and a
// deterministic event queue. The chunk-level simulator (chunknet) runs
// single-threaded on top of it so every run is exactly reproducible.
//
// Every event has a key (at, seq): its firing time and a sequence number
// taken when it was scheduled. Keys are a total order, and events fire in
// key order, so equal-time events fire in scheduling order.
//
// The queue is a binary min-heap of pointer-free (at, seq, slot) values.
// Sifts compare and move those values in place, with no pointer to
// dereference or write barrier to pay, and the garbage collector never
// scans the heap array. The callback lives in a slot table beside the
// heap, indexed by slot. A fired (or lazily dropped cancelled) event
// returns its slot to a free list for a later event to reuse, so
// steady-state scheduling performs no heap allocation. Timers stay safe
// across reuse via a per-slot generation counter: cancelling a timer
// whose event has already fired and whose slot was reused is a no-op,
// never a clobber of the new tenant. Cancel only clears the callback;
// the entry stays in the heap until it reaches the top.
//
// Reserve and AtKey split scheduling in two: Reserve takes the key After
// would take, and AtKey queues a callback under it later. A caller with a
// FIFO of events at increasing keys (chunknet's per-arc propagation pipe)
// can then keep only the head of the FIFO in the heap and fire everything
// in exactly the order separate After calls would have.
package des

import (
	"time"

	"repro/internal/obs"
)

// Simulator owns the virtual clock and the pending-event queue. The zero
// value is ready to use.
type Simulator struct {
	now   time.Duration
	heap  []entry
	slots []slot
	free  []int32
	seq   uint64
	stop  bool

	// Observability instruments (nil when not instrumented; every update
	// below is a nil-safe no-op then). Counters are updated on the
	// scheduling paths; the heap-depth gauge tracks the raw heap length,
	// cancelled events included, since that is what bounds memory.
	mScheduled *obs.Counter
	mFired     *obs.Counter
	mPooled    *obs.Counter
	mHeapDepth *obs.Gauge
}

// entry is one queued event: its key and the slot holding its callback.
type entry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// slot holds one queued event's callback. gen counts tenancies of the
// slot; a Timer is only valid for the generation it was issued at.
type slot struct {
	fn  func()
	gen uint32
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Instrument binds the simulator's kernel metrics to reg: counters
// des_events_scheduled / des_events_fired / des_events_pooled and gauge
// des_heap_depth. A nil registry leaves the simulator uninstrumented
// (the default): the hot paths then pay one nil check per update and
// allocate nothing. Metrics only observe — they never change scheduling.
func (s *Simulator) Instrument(reg *obs.Registry) {
	s.mScheduled = reg.Counter("des_events_scheduled")
	s.mFired = reg.Counter("des_events_fired")
	s.mPooled = reg.Counter("des_events_pooled")
	s.mHeapDepth = reg.Gauge("des_heap_depth")
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Timer is a handle to a scheduled event, allowing cancellation. The
// zero value is an inert timer; Cancel on it is a no-op.
type Timer struct {
	sim  *Simulator
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op (the generation check makes this
// safe even after the event's slot has been reused).
func (t Timer) Cancel() {
	if t.sim == nil {
		return
	}
	if sl := &t.sim.slots[t.slot]; sl.gen == t.gen {
		sl.fn = nil
	}
}

// Key is the (at, seq) key of an event: Reserve hands one out and AtKey
// queues a callback under it.
type Key struct {
	at  time.Duration
	seq uint64
}

// key takes the next sequence number for an event at t, clamping a past
// t to now. Every scheduled event passes through here exactly once.
func (s *Simulator) key(t time.Duration) Key {
	if t < s.now {
		t = s.now
	}
	k := Key{at: t, seq: s.seq}
	s.seq++
	s.mScheduled.Inc()
	return k
}

// queue pushes fn under k into the heap, taking a slot from the free list
// (or growing the table), and returns its timer.
func (s *Simulator) queue(k Key, fn func()) Timer {
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	s.slots[i].fn = fn
	s.push(entry{at: k.at, seq: k.seq, slot: i})
	s.mHeapDepth.Set(int64(len(s.heap)))
	return Timer{sim: s, slot: i, gen: s.slots[i].gen}
}

// release returns a popped event's slot to the free list, bumping its
// generation so stale Timers can no longer touch it.
func (s *Simulator) release(i int32) {
	sl := &s.slots[i]
	sl.fn = nil
	sl.gen++
	s.free = append(s.free, i)
	s.mPooled.Inc()
	s.mHeapDepth.Set(int64(len(s.heap)))
}

// At schedules fn at absolute time t. Events scheduled in the past fire at
// the current time (immediately on the next step), preserving causality.
// Events at equal times fire in scheduling order.
func (s *Simulator) At(t time.Duration, fn func()) Timer {
	return s.queue(s.key(t), fn)
}

// After schedules fn d from now.
func (s *Simulator) After(d time.Duration, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// Reserve takes the key After(d, ·) would take now — the same firing time
// and sequence number, counted as scheduled — without queueing anything.
// Queue a callback under it later with AtKey; an event whose key is never
// queued simply never fires.
func (s *Simulator) Reserve(d time.Duration) Key {
	return s.key(s.now + d)
}

// AtKey queues fn under a key from Reserve. It fires exactly where an
// After call made at Reserve time would have, provided it is queued
// before any event with a larger key fires. AtKey panics on a key earlier
// than now: that event's time has already passed.
func (s *Simulator) AtKey(k Key, fn func()) Timer {
	if k.at < s.now {
		panic("des: AtKey on a key earlier than now")
	}
	return s.queue(k, fn)
}

// Step fires the next pending event, advancing the clock to it. It reports
// whether an event was fired.
func (s *Simulator) Step() bool {
	for len(s.heap) > 0 {
		top := s.pop()
		fn := s.slots[top.slot].fn
		// Release before firing: the callback frequently schedules a
		// follow-up event, which can then reuse this slot immediately.
		s.release(top.slot)
		if fn == nil {
			continue // cancelled
		}
		s.now = top.at
		s.mFired.Inc()
		fn()
		return true
	}
	return false
}

// Run fires events until the queue empties or Stop is called.
func (s *Simulator) Run() {
	s.stop = false
	for !s.stop && s.Step() {
	}
}

// RunUntil fires all events up to and including time t, then advances the
// clock to t (even if no event was pending there).
func (s *Simulator) RunUntil(t time.Duration) {
	s.stop = false
	for !s.stop {
		next, ok := s.peekTime()
		if !ok || next > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Stop makes the innermost Run or RunUntil return after the current event.
func (s *Simulator) Stop() { s.stop = true }

// Pending returns the number of queued (non-cancelled) events. Keys taken
// by Reserve but not yet queued with AtKey do not count.
func (s *Simulator) Pending() int {
	n := 0
	for _, e := range s.heap {
		if s.slots[e.slot].fn != nil {
			n++
		}
	}
	return n
}

// peekTime drops cancelled events off the top and reports the time of the
// next live one.
func (s *Simulator) peekTime() (time.Duration, bool) {
	for len(s.heap) > 0 {
		if s.slots[s.heap[0].slot].fn == nil {
			s.release(s.pop().slot)
			continue
		}
		return s.heap[0].at, true
	}
	return 0, false
}

// The heap is a hand-rolled binary min-heap ordered by (at, seq): the
// earliest event first, scheduling order breaking ties. Both sifts move a
// hole instead of swapping, writing each displaced entry once and the
// moving entry once at its final place. (A 4-ary heap measured slower on
// chunknet's event mix.)

func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) push(e entry) {
	s.heap = append(s.heap, e)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (s *Simulator) pop() entry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	s.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && less(&h[right], &h[child]) {
			child = right
		}
		if !less(&h[child], &last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}
