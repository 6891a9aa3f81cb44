package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*Millisecond, func() { got = append(got, 3) })
	e.At(10*Millisecond, func() { got = append(got, 1) })
	e.At(20*Millisecond, func() { got = append(got, 2) })
	e.Run(Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Millisecond, func() { got = append(got, i) })
	}
	e.Run(Second)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(10*Millisecond, func() { fired = true })
	tm.Cancel()
	e.Run(Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.Stopped() {
		t.Fatal("cancelled timer not stopped")
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(250*Millisecond, func() { at = e.Now() })
	e.Run(Second)
	if at != 250*Millisecond {
		t.Fatalf("After fired at %v, want 250ms", at)
	}
	if e.Now() != Second {
		t.Fatalf("clock advanced to %v, want until=1s", e.Now())
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(2*Second, func() { fired++ })
	e.Run(Second)
	if fired != 0 {
		t.Fatal("event past until fired")
	}
	e.Run(3 * Second)
	if fired != 1 {
		t.Fatal("event not fired on extended run")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10*Millisecond, func() { fired++; e.Stop() })
	e.At(20*Millisecond, func() { fired++ })
	e.Run(Second)
	if fired != 1 {
		t.Fatalf("Stop did not halt run; fired=%d", fired)
	}
}

func TestEngineSchedulingInPast(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(10*Millisecond, func() {
		e.At(5*Millisecond, func() { order = append(order, "past") })
		e.At(10*Millisecond, func() { order = append(order, "now") })
	})
	e.Run(Second)
	if len(order) != 2 || order[0] != "past" || order[1] != "now" {
		t.Fatalf("past-scheduled events mishandled: %v", order)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewEngine(42).RNG(7)
	b := NewEngine(42).RNG(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed,id) produced different streams")
		}
	}
	c := NewEngine(42).RNG(8)
	same := 0
	d := NewEngine(42).RNG(7)
	for i := 0; i < 100; i++ {
		if c.Int63() == d.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct ids produced correlated streams (%d collisions)", same)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5)=%v", Seconds(1.5))
	}
	if got := (2500 * Millisecond).ToSeconds(); got != 2.5 {
		t.Fatalf("ToSeconds=%v", got)
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(99)
		var times []Time
		for _, d := range delays {
			e.At(Time(d)*Microsecond, func() { times = append(times, e.Now()) })
		}
		e.Run(Time(1 << 40))
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 25; i++ {
		e.At(Time(i)*Millisecond, func() {})
	}
	e.Run(Second)
	if e.Fired() != 25 {
		t.Fatalf("Fired=%d want 25", e.Fired())
	}
}

// A timer is live from At until it fires: a re-armed chain of one-shot
// timers reports each pending handle as not Stopped between firings,
// and a cancelled handle as Stopped at once.
func TestTimerLiveUntilFired(t *testing.T) {
	e := NewEngine(1)
	var tick Timer
	var mid []bool
	var arm func()
	arm = func() {
		tick = e.At(e.Now()+100*Millisecond, func() {
			arm()
			mid = append(mid, tick.Stopped())
		})
	}
	arm()
	e.At(450*Millisecond, func() {
		if tick.Stopped() {
			t.Error("pending timer reported Stopped before it fired")
		}
	})
	e.Run(500 * Millisecond)
	for i, s := range mid {
		if s {
			t.Fatalf("tick %d observed the re-armed timer Stopped", i)
		}
	}
	if len(mid) != 5 {
		t.Fatalf("fired %d ticks, want 5", len(mid))
	}
	tick.Cancel()
	if !tick.Stopped() {
		t.Fatal("cancelled timer not Stopped")
	}
}

// Cancelling a timer from a callback at the same instant stops it even
// though it is already queued in the batch being dispatched, and a
// timer cancelling itself while firing is a safe no-op.
func TestCancelDuringFire(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var first, second Timer
	first = e.At(10*Millisecond, func() {
		n++
		first.Cancel()
		second.Cancel()
	})
	second = e.At(10*Millisecond, func() { n++ })
	e.Run(Second)
	if n != 1 {
		t.Fatalf("%d callbacks fired, want 1 (the sibling was cancelled)", n)
	}
	if !first.Stopped() || !second.Stopped() {
		t.Fatal("fired and cancelled timers must both report Stopped")
	}
}

// A one-shot timer reports Stopped from within its own callback (it is
// already firing and will not fire again), matching historical behavior.
func TestOneShotStoppedDuringFire(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	stopped := false
	tm = e.At(Millisecond, func() { stopped = tm.Stopped() })
	e.Run(Second)
	if !stopped {
		t.Fatal("one-shot timer not Stopped during its own fire")
	}
	if !tm.Stopped() {
		t.Fatal("fired one-shot timer not Stopped afterwards")
	}
}

// Stale handles must stay safe no-ops after their slot is recycled:
// Cancel on an old generation must not kill the new occupant.
func TestTimerStaleHandleAfterSlotReuse(t *testing.T) {
	e := NewEngine(1)
	old := e.At(Millisecond, func() {})
	e.Run(2 * Millisecond) // fires; slot freed
	if !old.Stopped() {
		t.Fatal("fired timer not Stopped")
	}
	fired := false
	fresh := e.At(10*Millisecond, func() { fired = true }) // reuses the slot
	old.Cancel()                                           // stale: must not affect fresh
	if fresh.Stopped() {
		t.Fatal("stale Cancel affected the slot's new occupant")
	}
	e.Run(Second)
	if !fired {
		t.Fatal("new timer did not fire after stale Cancel")
	}
	var zero Timer
	if !zero.Stopped() {
		t.Fatal("zero Timer must report Stopped")
	}
	zero.Cancel() // must not panic
}

// Schedule, Post and At interleave in strict (time, seq) order.
func TestScheduleAndPostOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var ev Event
	e.Schedule(5*Millisecond, func() { got = append(got, 0) })
	e.Post(5*Millisecond, &ev, func(*Event) { got = append(got, 1) })
	e.At(5*Millisecond, func() { got = append(got, 2) })
	e.ScheduleAfter(5*Millisecond, func() { got = append(got, 3) })
	e.Run(Second)
	for i := 0; i < 4; i++ {
		if got[i] != i {
			t.Fatalf("mixed scheduling not FIFO at same instant: %v", got)
		}
	}
}

// hopState mimics an emulator in-flight record: the owned Event is its
// first field, and the callback recycles the whole record.
type hopState struct {
	ev   Event
	hops int
}

// An owned event re-posted from its own callback keeps firing, at the
// current instant too, and a callback that zeroes the record holding
// the Event must be safe: the engine never reads the body after
// handing it over.
func TestPostRepostAndRecycle(t *testing.T) {
	e := NewEngine(1)
	var log []Time
	var h hopState
	var fire func(*Event)
	fire = func(ev *Event) {
		if ev != &h.ev {
			t.Fatal("callback received a different body")
		}
		log = append(log, e.Now())
		h.hops++
		if h.hops == 4 {
			h = hopState{} // recycle: the engine must not look at it again
			return
		}
		d := Millisecond
		if h.hops == 2 {
			d = 0 // same-instant re-post joins the current batch
		}
		e.Post(e.Now()+d, ev, fire)
	}
	e.Post(Millisecond, &h.ev, fire)
	e.Run(Second)
	want := []Time{Millisecond, 2 * Millisecond, 2 * Millisecond, 3 * Millisecond}
	if len(log) != len(want) {
		t.Fatalf("fired at %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired at %v, want %v", log, want)
		}
	}
	if e.Fired() != 4 || e.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d, want 4/0", e.Fired(), e.Pending())
	}
}

// Two engines with the same seed executing the same workload must agree
// exactly on clock, fired count, and RNG draws.
func TestEngineGoldenDeterminism(t *testing.T) {
	trace := func() (uint64, Time, int64) {
		e := NewEngine(42)
		rng := e.RNG(7)
		var sum int64
		for i := 0; i < 500; i++ {
			d := Duration(rng.Int63n(int64(Second)))
			e.Schedule(e.Now()+d, func() { sum += int64(e.Now()) })
		}
		var tick Event
		var fire func(*Event)
		fire = func(ev *Event) {
			sum++
			e.Post(e.Now()+33*Millisecond, ev, fire)
		}
		e.Post(33*Millisecond, &tick, fire)
		end := e.Run(2 * Second)
		return e.Fired(), end, sum
	}
	f1, t1, s1 := trace()
	f2, t2, s2 := trace()
	if f1 != f2 || t1 != t2 || s1 != s2 {
		t.Fatalf("same seed diverged: (%d,%v,%d) vs (%d,%v,%d)", f1, t1, s1, f2, t2, s2)
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks. BenchmarkEngineSchedule is the headline
// allocation-free scheduler number: the seed implementation cost ~3
// allocations per event (heap-allocated event, container/heap
// interface boxing, Timer handle); the value-heap scheduler costs zero
// in steady state.
// ---------------------------------------------------------------------

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(i%1000)*Microsecond, fn)
		if e.Pending() >= 1024 {
			e.Run(e.Now() + Second)
		}
	}
	e.Run(1 << 62)
}

func BenchmarkEnginePost(b *testing.B) {
	e := NewEngine(1)
	// Owned bodies, recycled after firing: steady-state posts touch no
	// engine-side body and allocate nothing.
	bodies := make([]Event, 1024)
	free := make([]*Event, 0, len(bodies))
	for i := range bodies {
		free = append(free, &bodies[i])
	}
	fn := func(ev *Event) { free = append(free, ev) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := free[len(free)-1]
		free = free[:len(free)-1]
		e.Post(e.Now()+Time(i%1000)*Microsecond, ev, fn)
		if len(free) == 0 {
			e.Run(e.Now() + Second)
		}
	}
	e.Run(1 << 62)
}

func BenchmarkEngineAtTimer(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Time(i%1000)*Microsecond, fn)
		if e.Pending() >= 1024 {
			e.Run(e.Now() + Second)
		}
	}
	e.Run(1 << 62)
}

// TestCalendarHorizonOrdering schedules events across both sides of
// the ring window — including deep overflow-heap territory — out of
// order, and checks they fire in exact (time, scheduling) order. This
// pins the overflow migration path: events start on the heap, move
// into the ring as the clock advances, and must interleave perfectly
// with events pushed straight into their buckets.
func TestCalendarHorizonOrdering(t *testing.T) {
	e := NewEngine(1)
	times := []Time{
		500 * Millisecond, // overflow at push time
		1 * Millisecond,
		200 * Millisecond, // overflow at push time
		133 * Millisecond,
		10 * Second, // deep overflow
		134 * Millisecond,
		135 * Millisecond,
		2 * Millisecond,
		100 * Microsecond,
		500 * Millisecond, // duplicate instant: fires after index 0
	}
	var got []int
	for i, at := range times {
		i := i
		e.Schedule(at, func() { got = append(got, i) })
	}
	e.Run(20 * Second)
	want := []int{8, 1, 7, 3, 5, 6, 2, 0, 9, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestCalendarMigrationTieOrder creates an exact-time tie between an
// event that waited on the overflow heap and one pushed directly into
// the ring once the window reached that slot. The overflow event was
// scheduled first, so it must fire first.
func TestCalendarMigrationTieOrder(t *testing.T) {
	e := NewEngine(1)
	const at = 200 * Millisecond
	var got []string
	e.Schedule(at, func() { got = append(got, "early") }) // overflow now
	e.Schedule(150*Millisecond, func() {
		// at is now inside the ring window: direct bucket push, and
		// its fresh seq must order it after the migrated twin.
		e.Schedule(at, func() { got = append(got, "late") })
	})
	e.Run(Second)
	if len(got) != 2 || got[0] != "early" || got[1] != "late" {
		t.Fatalf("tie order %v, want [early late]", got)
	}
}

// TestCalendarClockJumps runs the engine across idle gaps much larger
// than the ring window (Run to a far target with nothing pending, then
// AdvanceTo further still) and checks scheduling keeps working with
// the window re-based far from slot zero.
func TestCalendarClockJumps(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Run(5 * Second) // empty run: clock lands on the target
	if e.Now() != 5*Second {
		t.Fatalf("now = %v after empty run, want 5s", e.Now())
	}
	e.AdvanceTo(90 * Second)
	e.Schedule(e.Now()+3*Millisecond, func() { fired++ })
	e.Schedule(e.Now()+400*Millisecond, func() { fired++ }) // overflow
	e.Schedule(e.Now(), func() { fired++ })                 // current instant
	e.Run(100 * Second)
	if fired != 3 {
		t.Fatalf("fired %d events after clock jumps, want 3", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}
