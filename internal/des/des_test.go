package des

import (
	"math/rand"

	"repro/internal/obs"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestOrdering(t *testing.T) {
	s := New()
	var fired []int
	s.After(3*time.Second, func() { fired = append(fired, 3) })
	s.After(1*time.Second, func() { fired = append(fired, 1) })
	s.After(2*time.Second, func() { fired = append(fired, 2) })
	s.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fired order = %v, want [1 2 3]", fired)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("final time = %v, want 3s", s.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	s := New()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { fired = append(fired, i) })
	}
	s.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", fired)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var log []time.Duration
	s.After(time.Second, func() {
		log = append(log, s.Now())
		s.After(time.Second, func() {
			log = append(log, s.Now())
		})
	})
	s.Run()
	if len(log) != 2 || log[0] != time.Second || log[1] != 2*time.Second {
		t.Errorf("nested log = %v", log)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	s := New()
	s.After(5*time.Second, func() {
		s.At(time.Second, func() {
			if s.Now() != 5*time.Second {
				t.Errorf("past event fired at %v, want clamp to 5s", s.Now())
			}
		})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	timer := s.After(time.Second, func() { fired = true })
	timer.Cancel()
	timer.Cancel() // double-cancel is a no-op
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	var zeroTimer Timer
	zeroTimer.Cancel() // must not panic
}

// TestStaleTimerCancel pins the pooled-event safety property: cancelling
// a timer whose event already fired — and whose event object has since
// been reused by a newer scheduling — must not cancel the new tenant.
func TestStaleTimerCancel(t *testing.T) {
	s := New()
	firstFired, secondFired := false, false
	stale := s.After(time.Second, func() { firstFired = true })
	s.Run()
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	// This scheduling reuses the pooled event object the stale timer
	// still points at.
	s.After(time.Second, func() { secondFired = true })
	stale.Cancel() // must be a no-op: its generation has passed
	s.Run()
	if !secondFired {
		t.Error("stale Cancel clobbered a reused event")
	}
}

// scheduleAllocs reports the allocations per steady-state round of 32
// events, scheduled through After or through Reserve followed by AtKey,
// once the slot table, free list and heap array are warm.
func scheduleAllocs(s *Simulator, reserve bool) float64 {
	round := func(n int) {
		for i := 0; i < n; i++ {
			d := time.Duration(i%7) * time.Millisecond
			if reserve {
				s.AtKey(s.Reserve(d), func() {})
			} else {
				s.After(d, func() {})
			}
		}
		s.Run()
	}
	round(64)
	return testing.AllocsPerRun(100, func() { round(32) })
}

// TestScheduleAllocFree verifies the steady-state scheduling path reuses
// pooled slots instead of allocating, on both scheduling paths.
func TestScheduleAllocFree(t *testing.T) {
	for _, reserve := range []bool{false, true} {
		if allocs := scheduleAllocs(New(), reserve); allocs > 0 {
			t.Errorf("steady-state scheduling (reserve=%v) allocates %.1f objects per run, want 0", reserve, allocs)
		}
	}
}

// TestAtKeyPastPanics pins that a reserved key whose time has passed
// cannot be queued: it would fire behind events it must precede.
func TestAtKeyPastPanics(t *testing.T) {
	s := New()
	k := s.Reserve(time.Second)
	s.After(2*time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("AtKey on a key earlier than now did not panic")
		}
	}()
	s.AtKey(k, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2500 * time.Millisecond)
	if len(fired) != 2 {
		t.Errorf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 2500*time.Millisecond {
		t.Errorf("clock = %v, want 2.5s", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %d, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Errorf("Stop did not halt run: count = %d", count)
	}
	s.Run() // resume
	if count != 5 {
		t.Errorf("resume failed: count = %d", count)
	}
}

func TestHeapPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 1 + rng.Intn(200)
		times := make([]time.Duration, n)
		var fired []time.Duration
		for i := range times {
			times[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
			d := times[i]
			s.At(d, func() { fired = append(fired, d) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		sorted := append([]time.Duration(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestInstrument verifies the kernel metrics: scheduled/fired/pooled
// counters and the heap-depth gauge, and that binding a registry does not
// change execution.
func TestInstrument(t *testing.T) {
	reg := obs.New("des")
	s := New()
	s.Instrument(reg)
	var fired []int
	s.After(2*time.Second, func() { fired = append(fired, 2) })
	s.After(1*time.Second, func() { fired = append(fired, 1) })
	timer := s.After(3*time.Second, func() { fired = append(fired, 3) })
	if got := reg.Gauge("des_heap_depth").Value(); got != 3 {
		t.Errorf("heap depth = %d, want 3", got)
	}
	timer.Cancel()
	s.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("instrumented run fired %v, want [1 2]", fired)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["des_events_scheduled"]; got != 3 {
		t.Errorf("scheduled = %d, want 3", got)
	}
	if got := snap.Counters["des_events_fired"]; got != 2 {
		t.Errorf("fired = %d, want 2 (cancelled event must not count)", got)
	}
	if got := snap.Counters["des_events_pooled"]; got != 3 {
		t.Errorf("pooled = %d, want 3 (fired and cancelled events recycle)", got)
	}
	if got := snap.Gauges["des_heap_depth"]; got != 0 {
		t.Errorf("final heap depth = %d, want 0", got)
	}
}

// TestInstrumentedScheduleAllocFree pins that an *enabled* registry keeps
// the steady-state scheduling path allocation-free too: counter and gauge
// updates are plain atomics.
func TestInstrumentedScheduleAllocFree(t *testing.T) {
	for _, reserve := range []bool{false, true} {
		s := New()
		s.Instrument(obs.New("des"))
		if allocs := scheduleAllocs(s, reserve); allocs > 0 {
			t.Errorf("instrumented scheduling (reserve=%v) allocates %.1f objects per run, want 0", reserve, allocs)
		}
	}
}

// modelEvent is the oracle's view of one scheduled event.
type modelEvent struct {
	at        time.Duration
	seq       uint64
	queued    bool // false while a Reserve key awaits AtKey
	cancelled bool
	key       Key   // the reserved key, kept until AtKey
	timer     Timer // issued once queued
}

// model drives a Simulator with random operations and checks every
// firing against a naive oracle: the pending events sorted by (at, seq).
type model struct {
	t       *testing.T
	rng     *rand.Rand
	s       *Simulator
	now     time.Duration
	seq     uint64
	pending []*modelEvent
	issued  []*modelEvent // every queued event, fired ones included
	budget  int           // events left to schedule
	inRun   bool
	stopped bool
	fired   int
}

// next is the oracle's next event to fire: the smallest (at, seq) among
// the live ones, or nil.
func (m *model) next() *modelEvent {
	live := m.pending[:0:0]
	for _, e := range m.pending {
		if !e.cancelled {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].at != live[j].at {
			return live[i].at < live[j].at
		}
		return live[i].seq < live[j].seq
	})
	if len(live) == 0 {
		return nil
	}
	return live[0]
}

// take issues the oracle's key for an event at t.
func (m *model) take(t time.Duration) *modelEvent {
	if t < m.now {
		t = m.now
	}
	e := &modelEvent{at: t, seq: m.seq}
	m.seq++
	m.budget--
	m.pending = append(m.pending, e)
	return e
}

func (m *model) fire(e *modelEvent) func() {
	return func() {
		if m.stopped {
			m.t.Fatalf("event %d fired after Stop", e.seq)
		}
		want := m.next()
		if want != e {
			m.t.Fatalf("fired event at %v seq %d, oracle expects %+v", e.at, e.seq, want)
		}
		if m.s.Now() != e.at {
			m.t.Fatalf("event %d fired at %v, scheduled for %v", e.seq, m.s.Now(), e.at)
		}
		m.now = e.at
		m.remove(e)
		m.fired++
		for n := m.rng.Intn(3); n > 0; n-- {
			m.op(false)
		}
		if m.inRun && m.rng.Intn(20) == 0 {
			m.s.Stop()
			m.stopped = true
		}
		m.flush()
	}
}

func (m *model) remove(e *modelEvent) {
	for i, p := range m.pending {
		if p == e {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

// flush upholds AtKey's contract: a reserved key is queued before any
// event with a larger key fires, so whenever the oracle's next event is
// a reservation, queue it now.
func (m *model) flush() {
	if e := m.next(); e != nil && !e.queued {
		m.queue(e)
	}
}

func (m *model) queue(e *modelEvent) {
	e.queued = true
	e.timer = m.s.AtKey(e.key, m.fire(e))
	m.issued = append(m.issued, e)
}

// op performs one random scheduling operation; top-level calls may also
// advance the simulation.
func (m *model) op(top bool) {
	n := 5
	if top {
		n = 9
	}
	switch m.rng.Intn(n) {
	case 0: // At, possibly in the past
		if m.budget > 0 {
			t := m.now + time.Duration(m.rng.Intn(40)-10)*time.Millisecond
			e := m.take(t)
			e.queued = true
			e.timer = m.s.At(t, m.fire(e))
			m.issued = append(m.issued, e)
		}
	case 1: // After, often at the same time as others
		if m.budget > 0 {
			d := time.Duration(m.rng.Intn(4)) * 10 * time.Millisecond
			e := m.take(m.now + d)
			e.queued = true
			e.timer = m.s.After(d, m.fire(e))
			m.issued = append(m.issued, e)
		}
	case 2: // Cancel any timer ever issued, stale ones included
		if len(m.issued) > 0 {
			e := m.issued[m.rng.Intn(len(m.issued))]
			e.timer.Cancel()
			e.cancelled = true // a no-op for the oracle once fired
		}
	case 3: // Reserve, queued later
		if m.budget > 0 {
			d := time.Duration(m.rng.Intn(4)) * 10 * time.Millisecond
			e := m.take(m.now + d)
			e.key = m.s.Reserve(d)
		}
	case 4: // AtKey on some outstanding reservation
		var open []*modelEvent
		for _, e := range m.pending {
			if !e.queued {
				open = append(open, e)
			}
		}
		if len(open) > 0 {
			m.queue(open[m.rng.Intn(len(open))])
		}
	case 5: // Step
		m.flush()
		want := m.next() != nil
		if got := m.s.Step(); got != want {
			m.t.Fatalf("Step() = %v, oracle has a live event: %v", got, want)
		}
	case 6: // RunUntil
		m.flush()
		until := m.now + time.Duration(m.rng.Intn(50))*time.Millisecond
		m.s.RunUntil(until)
		if e := m.next(); e != nil && e.at <= until {
			m.t.Fatalf("RunUntil(%v) left event %+v behind", until, e)
		}
		if until > m.now {
			m.now = until
		}
	case 7: // Run, which callbacks may Stop
		m.flush()
		m.inRun = true
		m.s.Run()
		m.inRun = false
		if !m.stopped && m.next() != nil {
			m.t.Fatalf("Run returned with live events and no Stop")
		}
		m.stopped = false
	case 8: // Pending counts queued, uncancelled events only
		want := 0
		for _, e := range m.pending {
			if e.queued && !e.cancelled {
				want++
			}
		}
		if got := m.s.Pending(); got != want {
			m.t.Fatalf("Pending() = %d, oracle %d", got, want)
		}
	}
	if m.s.Now() != m.now {
		m.t.Fatalf("clock %v, oracle %v", m.s.Now(), m.now)
	}
}

// TestKernelMatchesOracle interleaves At (including past times), After,
// Cancel (including stale timers whose slot was reused), Reserve with a
// later AtKey, Stop, Step, RunUntil and Run at random, in callbacks and
// between runs, and checks every firing and every count against the
// oracle. Stop is only called inside Run: inside RunUntil it would let
// the clock jump past reserved keys, which AtKey then rightly rejects.
func TestKernelMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		reg := obs.New("des")
		m := &model{t: t, rng: rand.New(rand.NewSource(seed)), s: New(), budget: 300}
		m.s.Instrument(reg)
		for i := 0; i < 400; i++ {
			m.op(true)
		}
		for m.next() != nil {
			m.flush()
			m.s.Run()
			m.stopped = false
		}
		if got := reg.Snapshot().Counters["des_events_scheduled"]; got != int64(m.seq) {
			t.Fatalf("seed %d: des_events_scheduled = %d, oracle %d", seed, got, m.seq)
		}
		if got := reg.Snapshot().Counters["des_events_fired"]; got != int64(m.fired) {
			t.Fatalf("seed %d: des_events_fired = %d, oracle %d", seed, got, m.fired)
		}
		if m.s.Pending() != 0 || len(m.s.heap) != 0 {
			t.Fatalf("seed %d: %d events left after the final Run", seed, len(m.s.heap))
		}
	}
}
