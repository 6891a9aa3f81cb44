// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, so a
// run is a pure function of the initial configuration and RNG seeds.
// All protocol code in this repository (netem, TFRC, RanSub, Bullet)
// executes inside engine callbacks on a single goroutine.
//
// # Scheduler internals
//
// The queue is a calendar queue: a ring of ~0.5 ms time buckets
// covering the next ~134 ms of virtual time, backed by a 4-ary min-heap for the
// far future. The design is driven by the measured push profile of the
// Figure 7 run — effectively every event is scheduled 100 µs to 100 ms
// ahead (link latencies, serialization delays, pump and TFRC timers),
// and exact-time ties are vanishingly rare — so a push is an O(1)
// append to the ring bucket of its slot, and ordering work is deferred
// to the moment a bucket becomes the earliest: it is sorted once by
// (time, sequence) and then consumed in place, head to tail. That
// replaces the per-event heap sift-down (~log n compares and three
// slice moves per pop, the hottest loop in the process) with an
// amortized O(log k) over the k events sharing a bucket.
// Events beyond the ring's horizon go to the overflow heap — ordered
// by (time, sequence), stored as three parallel slices so the
// sift-down child scan reads four contiguous int64 timestamps from a
// single cache line — and migrate into the ring as the clock advances
// into their window. Event bodies (the callback and timer slot) live in
// an arena of chunked slots that never move; they are recycled through
// the arena's free list, so the steady-state cost of an event remains
// zero heap allocations.
//
// None of this layout is observable: (time, sequence) is a strict
// total order — sequence numbers are unique per engine — so the pop
// sequence is fully determined by the key set regardless of which
// structure holds an event, which is what licenses the split without
// touching the determinism contract.
//
// The dispatch loop executes events in same-deadline batches: the pop
// loop hoists the clock write and the run-limit comparison out of runs
// of events sharing one timestamp, so a burst scheduled for the same
// instant pays the loop overhead once. Batching never reorders
// anything — events within a batch still fire in exact (time, seq)
// order, and a callback scheduling more work at the current instant
// joins the tail of the batch exactly as the serial contract requires.
//
// Cancellable timers are handled through a slot table with generation
// counters: At/After allocate a slot from a free list and return a
// value-type Timer naming (slot, generation). Cancel and Stopped check
// the generation, so stale handles are always safe no-ops. The hot
// fire-and-forget path (Schedule) skips the slot table entirely.
//
// Post is the caller-owned variant: the caller embeds an Event in the
// state the event carries (netem embeds one in every in-flight packet)
// and the engine queues a pointer to it instead of taking a body from
// its arena. The callback receives the Event back, so the state it
// belongs to is reached without a closure, an interface box, or a
// second cache line: firing the event touches memory the callback is
// about to touch anyway. The engine never reads an owned body after
// handing it to its callback, which may therefore recycle or re-post
// it.
package sim

import (
	"math/rand"

	"bullet/internal/arena"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a virtual time span in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds converts a floating point number of seconds to a Duration.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// ToSeconds converts a Time or Duration to floating point seconds.
func (t Time) ToSeconds() float64 { return float64(t) / float64(Second) }

// Timer is a handle for a scheduled event. Cancel prevents the callback
// from running if it has not fired yet. The zero Timer is valid: Cancel
// is a no-op and Stopped reports true.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint64
}

// Cancel stops the timer. It is safe to call multiple times, after the
// event has fired, and on the zero Timer.
func (t Timer) Cancel() {
	if t.e == nil {
		return
	}
	s := &t.e.slots[t.slot]
	if s.gen == t.gen && !s.done {
		s.cancelled = true
	}
}

// Stopped reports whether the timer was cancelled or has fired. A timer
// reports stopped from inside its own callback: it is firing and will
// not fire again.
func (t Timer) Stopped() bool {
	if t.e == nil {
		return true
	}
	s := &t.e.slots[t.slot]
	if s.gen != t.gen {
		return true // slot recycled: that timer finished long ago
	}
	return s.done || s.cancelled
}

// Event is the non-ordering payload of one queued event: a body from
// the engine's arena (Schedule, At, After) or one owned by the caller
// (Post). Either way it stays put for its queued lifetime. Exactly one
// of fire and fn is set. The zero Event is ready for Post.
type Event struct {
	fire func(*Event) // owned body: called with the body itself
	fn   func()
	slot int32 // timer slot index, or noSlot for fire-and-forget
}

const noSlot = int32(-1)

// timerSlot tracks the liveness of one outstanding Timer handle.
type timerSlot struct {
	gen       uint64
	done      bool
	cancelled bool
}

// Calendar-queue geometry. A slot is 2^slotShift ns of virtual time
// (~524 µs — just under the topology's link-latency decade, so a
// bucket holds tens of events at the small scale and sorting stays
// cheap), and the ring covers ringSlots consecutive slots (~134 ms,
// past the bulk of the measured push horizon of the hot paths; the
// pump/TFRC timer tail beyond it rides the overflow heap).
const (
	slotShift = 19
	ringSlots = 256
	ringMask  = ringSlots - 1
)

// ev is one queued event: its ordering key and its body.
type ev struct {
	at  Time
	seq uint64
	b   *Event
}

// bucket holds the events of one absolute slot. Future buckets are
// unsorted append targets; when a bucket becomes the earliest nonempty
// one it is sorted by (at, seq) once and consumed in place via head.
// Ring indices are reused as the window advances, so each bucket is
// stamped with the absolute slot it currently holds: a stale stamp
// means "empty, reset me on next use".
type bucket struct {
	slot   int64
	head   int
	sorted bool
	evs    []ev
}

// Engine is a deterministic discrete-event scheduler.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	// The near future: ring buckets for slots [base, base+ringSlots).
	// base tracks slot(now); scan is the slot cursor of the earliest
	// possibly-nonempty bucket (monotone within a window, lowered only
	// by a push below it); ringN counts unconsumed ring events.
	ring  [ringSlots]bucket
	base  int64
	scan  int64
	ringN int
	// The far future: a 4-ary min-heap ordered by (at, seq), stored as
	// parallel slices so the sift-down child scan touches only the
	// timestamp slice — four contiguous int64s, one cache line. Events
	// here migrate into the ring as the window advances over them.
	ofAt  []Time
	ofSeq []uint64
	ofB   []*Event

	seq     uint64
	stopped bool
	seed    int64
	fired   uint64

	bodies arena.Arena[Event]

	slots []timerSlot
	free  []int32 // free slot indices
}

// NewEngine returns an engine with the clock at zero. The seed is used
// to derive per-entity RNG streams via RNG.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the master seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (including
// cancelled timers that have not been popped yet).
func (e *Engine) Pending() int { return e.ringN + len(e.ofAt) }

// RNG derives a deterministic random stream for the given entity id.
// Distinct ids yield independent streams; the same (seed, id) pair
// always yields the same stream.
func (e *Engine) RNG(id int64) *rand.Rand {
	// splitmix64-style mixing of seed and id.
	z := uint64(e.seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// ---------------------------------------------------------------------
// Calendar queue: ring of per-slot buckets + far-future overflow heap.
//
// The ordering key (at, seq) is a strict total order — seq is unique
// per engine — so the pop sequence is fully determined by the key set
// regardless of which structure holds an event or how it is arranged
// inside it. That is what licenses layout changes here without
// touching the determinism contract.
//
// Invariants:
//   - base == slot(now); every queued event has at >= now, so its slot
//     is >= base.
//   - the ring holds exactly the events with slot in
//     [base, base+ringSlots); the overflow heap holds the rest.
//   - scan <= the slot of the earliest unconsumed ring event, and all
//     buckets for slots in [base, scan) are empty.
// ---------------------------------------------------------------------

// push enqueues b at time at, assigning the next sequence number.
func (e *Engine) push(at Time, b *Event) {
	sq := e.seq
	e.seq++
	s := int64(at) >> slotShift
	if s-e.base < ringSlots {
		e.ringPut(s, ev{at, sq, b})
		return
	}
	e.ofPush(at, sq, b)
}

// ringPut files v into the bucket for absolute slot s, resetting a
// bucket whose stamp says it still belongs to a slot that has left the
// window (such a bucket is always fully consumed — every event below
// now has fired). A sorted bucket is the one being (or about to be)
// consumed: keep it sorted with an ordered insert. The (at, seq) upper
// bound can never land below head, because everything consumed so far
// is strictly smaller than any event still arriving.
func (e *Engine) ringPut(s int64, v ev) {
	bk := &e.ring[s&ringMask]
	if bk.slot != s {
		bk.slot, bk.head, bk.sorted = s, 0, false
		bk.evs = bk.evs[:0]
	}
	if bk.sorted {
		evs := bk.evs
		lo, hi := bk.head, len(evs)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if evs[m].at < v.at || (evs[m].at == v.at && evs[m].seq < v.seq) {
				lo = m + 1
			} else {
				hi = m
			}
		}
		evs = append(evs, ev{})
		copy(evs[lo+1:], evs[lo:])
		evs[lo] = v
		bk.evs = evs
	} else {
		bk.evs = append(bk.evs, v)
	}
	if s < e.scan {
		e.scan = s
	}
	e.ringN++
}

// evLess orders events by (at, seq). Taking pointers keeps the 24-byte
// copies out of the compare; the call inlines.
func evLess(a, b *ev) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// sortEvs is a quicksort over events with the compare inlined —
// sorting is the per-bucket cost the calendar queue amortizes over a
// slot's events, and the generic sort's indirect comparator call was
// the single largest queue expense when it sat here. Keys are unique
// (seq is), so a plain Hoare partition with a median-of-three pivot
// needs no equal-run handling.
func sortEvs(evs []ev) {
	for {
		n := len(evs)
		if n <= 16 {
			for i := 1; i < n; i++ {
				v := evs[i]
				j := i
				for j > 0 && evLess(&v, &evs[j-1]) {
					evs[j] = evs[j-1]
					j--
				}
				evs[j] = v
			}
			return
		}
		m := n / 2
		if evLess(&evs[m], &evs[0]) {
			evs[0], evs[m] = evs[m], evs[0]
		}
		if evLess(&evs[n-1], &evs[0]) {
			evs[0], evs[n-1] = evs[n-1], evs[0]
		}
		if evLess(&evs[n-1], &evs[m]) {
			evs[m], evs[n-1] = evs[n-1], evs[m]
		}
		p := evs[m]
		i, j := -1, n
		for {
			for {
				i++
				if !evLess(&evs[i], &p) {
					break
				}
			}
			for {
				j--
				if !evLess(&p, &evs[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			evs[i], evs[j] = evs[j], evs[i]
		}
		// Recurse into the smaller half, iterate on the larger: the
		// stack stays O(log n) regardless of pivot luck.
		if j+1 <= n-j-1 {
			sortEvs(evs[:j+1])
			evs = evs[j+1:]
		} else {
			sortEvs(evs[j+1:])
			evs = evs[:j+1]
		}
	}
}

// sort orders the bucket by (at, seq). Only a never-consumed bucket
// can be unsorted, so head is 0 and the whole slice is fair game.
func (bk *bucket) sort() {
	sortEvs(bk.evs)
	bk.sorted = true
}

// ringHead advances scan to the earliest nonempty bucket and returns
// it sorted, with its head entry the queue-wide minimum (ring events
// always precede overflow events: the overflow invariant keeps them at
// least a full window later). Callers must ensure ringN > 0.
func (e *Engine) ringHead() *bucket {
	for {
		bk := &e.ring[e.scan&ringMask]
		if bk.slot == e.scan && bk.head < len(bk.evs) {
			if !bk.sorted {
				bk.sort()
			}
			return bk
		}
		e.scan++
	}
}

// setNow advances the clock and, when the window base moves, migrates
// every overflow event whose slot has entered [base, base+ringSlots)
// into the ring. Buckets between the old and new base are necessarily
// empty — their events were all at < t and have fired — so no walk is
// needed; the base jumps directly.
func (e *Engine) setNow(t Time) {
	e.now = t
	s := int64(t) >> slotShift
	if s == e.base {
		return
	}
	e.base = s
	if e.scan < s {
		e.scan = s
	}
	horizon := Time((s + ringSlots) << slotShift)
	for len(e.ofAt) > 0 && e.ofAt[0] < horizon {
		at, sq, b := e.ofPop()
		e.ringPut(int64(at)>>slotShift, ev{at, sq, b})
	}
}

// ofPush enqueues an event on the overflow heap. Overflow entries are
// only ever pushed with a fresh sequence number — migration moves them
// out, never back in — so the newcomer's seq is strictly greater than
// every queued entry's and the sift-up comparison reduces to the
// timestamp alone (a timestamp tie can never favor the newcomer).
func (e *Engine) ofPush(at Time, sq uint64, b *Event) {
	ats := append(e.ofAt, at)
	sqs := append(e.ofSeq, sq)
	bs := append(e.ofB, b)
	i := len(ats) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if ats[p] <= at {
			break
		}
		ats[i], sqs[i], bs[i] = ats[p], sqs[p], bs[p]
		i = p
	}
	ats[i], sqs[i], bs[i] = at, sq, b
	e.ofAt, e.ofSeq, e.ofB = ats, sqs, bs
}

// ofPop removes and returns the minimum overflow entry. The stale body
// pointer left past the new length of ofB is harmless: at worst it
// keeps an arena chunk or a caller's record reachable until the slot
// is reused.
func (e *Engine) ofPop() (Time, uint64, *Event) {
	ats, sqs, bs := e.ofAt, e.ofSeq, e.ofB
	mat, msq, mb := ats[0], sqs[0], bs[0]
	n := len(ats) - 1
	kat, ksq, kb := ats[n], sqs[n], bs[n]
	ats, sqs, bs = ats[:n], sqs[:n], bs[:n]
	e.ofAt, e.ofSeq, e.ofB = ats, sqs, bs
	if n == 0 {
		return mat, msq, mb
	}
	// Sift the displaced tail entry down from the root. The child scan
	// reads timestamps only, falling through to seq on exact ties.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if ats[j] < ats[m] || (ats[j] == ats[m] && sqs[j] < sqs[m]) {
				m = j
			}
		}
		if ats[m] > kat || (ats[m] == kat && sqs[m] > ksq) {
			break
		}
		ats[i], sqs[i], bs[i] = ats[m], sqs[m], bs[m]
		i = m
	}
	ats[i], sqs[i], bs[i] = kat, ksq, kb
	return mat, msq, mb
}

// ---------------------------------------------------------------------
// Timer slot table.
// ---------------------------------------------------------------------

// allocSlot takes a slot from the free list (or grows the table) and
// returns a live handle for it.
func (e *Engine) allocSlot() (int32, uint64) {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		idx = int32(len(e.slots))
		e.slots = append(e.slots, timerSlot{})
	}
	s := &e.slots[idx]
	s.gen++
	s.done = false
	s.cancelled = false
	return idx, s.gen
}

// freeSlot marks the slot finished and returns it to the free list.
// Outstanding Timer handles keep matching gen until reuse, at which
// point the generation bump invalidates them.
func (e *Engine) freeSlot(idx int32) {
	e.slots[idx].done = true
	e.free = append(e.free, idx)
}

// ---------------------------------------------------------------------
// Scheduling API.
// ---------------------------------------------------------------------

// clamp maps past times to the current instant: scheduling in the past
// runs the event at the current time, after already-queued same-instant
// events (FIFO by sequence number).
func (e *Engine) clamp(t Time) Time {
	if t < e.now {
		return e.now
	}
	return t
}

// newBody takes a zeroed body from the arena.
func (e *Engine) newBody() *Event { return e.bodies.Get() }

// At schedules fn to run at absolute time t and returns a cancellable
// Timer. Callers that never cancel should prefer Schedule, which skips
// the timer slot table.
func (e *Engine) At(t Time, fn func()) Timer {
	slot, gen := e.allocSlot()
	b := e.newBody()
	b.fn = fn
	b.slot = slot
	e.push(e.clamp(t), b)
	return Timer{e: e, slot: slot, gen: gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// Schedule runs fn at absolute time t with no cancellation handle.
// This is the allocation-free fast path for fire-and-forget events.
func (e *Engine) Schedule(t Time, fn func()) {
	b := e.newBody()
	b.fn = fn
	b.slot = noSlot
	e.push(e.clamp(t), b)
}

// ScheduleAfter runs fn d after the current time with no handle.
func (e *Engine) ScheduleAfter(d Duration, fn func()) {
	e.Schedule(e.now+d, fn)
}

// Post schedules the caller-owned event ev to fire fn(ev) at absolute
// time t, with no handle. ev must not be pending already; once it has
// fired it may be posted again, from its own callback included. Embed
// the Event in the state the event carries and recover that state from
// the pointer fn receives: a steady stream of owned events costs zero
// allocations and no engine-side body at all.
func (e *Engine) Post(t Time, ev *Event, fn func(*Event)) {
	ev.fire = fn
	e.push(e.clamp(t), ev)
}

// Run executes events until the queue drains, the clock passes until,
// or Stop is called. It returns the time of the last executed event.
func (e *Engine) Run(until Time) Time {
	e.exec(until, false)
	if e.now < until && !e.stopped {
		e.setNow(until)
	}
	return e.now
}

// RunBefore executes events strictly before end, leaving the clock at
// the last executed event. It is the shard-window primitive of the
// conservative-PDES runner: a window [T, end) runs every shard's
// events with at < end, then the barrier exchanges cross-shard
// handoffs (all provably at >= end thanks to the lookahead bound) and
// AdvanceTo moves every clock to end. Unlike Run, the clock is not
// advanced past the last event — barrier-time events produced later in
// the same round must still be schedulable at end itself.
func (e *Engine) RunBefore(end Time) {
	e.exec(end, true)
}

// NextAt returns the time of the earliest queued event, if any. A
// cancelled timer still occupying the heap head counts — callers using
// this to size an execution window may see a spuriously early bound,
// which is harmless (the window is merely shorter than necessary).
// NextAt is deliberately read-only — the sharded runner's deciding
// shard calls it on quiescent sibling engines at the window barrier,
// and keeping it mutation-free means the release edge only has to
// order reads. An unsorted head bucket is scanned instead of sorted.
func (e *Engine) NextAt() (Time, bool) {
	if e.ringN == 0 {
		if len(e.ofAt) == 0 {
			return 0, false
		}
		return e.ofAt[0], true
	}
	for s := e.scan; ; s++ {
		bk := &e.ring[s&ringMask]
		if bk.slot != s || bk.head >= len(bk.evs) {
			continue
		}
		min := bk.evs[bk.head].at
		if !bk.sorted {
			for _, v := range bk.evs[bk.head+1:] {
				if v.at < min {
					min = v.at
				}
			}
		}
		return min, true
	}
}

// AdvanceTo moves the clock forward to t without executing events.
// Moving backwards is a no-op. Callers must ensure no queued event is
// earlier than t (the sharded runner's windows guarantee this).
func (e *Engine) AdvanceTo(t Time) {
	if e.now < t {
		e.setNow(t)
	}
}

// exec is the shared event loop: it executes events while the head is
// <= limit (strict=false, Run semantics) or < limit (strict=true,
// RunBefore semantics), honoring Stop. Dispatch is batched by
// deadline: the outer loop admits one timestamp against the limit and
// sets the clock once; the inner loop then drains every event at that
// timestamp — including ones its callbacks append at the current
// instant, which join the batch tail in FIFO order exactly as the
// serial schedule requires.
func (e *Engine) exec(limit Time, strict bool) {
	e.stopped = false
	for e.ringN+len(e.ofAt) > 0 && !e.stopped {
		var t Time
		if e.ringN > 0 {
			bk := e.ringHead()
			t = bk.evs[bk.head].at
		} else {
			t = e.ofAt[0]
		}
		if t > limit || (strict && t == limit) {
			break
		}
		// After the clock lands on t, the event at t is in the ring:
		// if it came from overflow, the base advance just migrated it.
		e.setNow(t)
		for e.ringN > 0 && !e.stopped {
			bk := e.ringHead()
			if bk.evs[bk.head].at != t {
				break
			}
			b := bk.evs[bk.head].b
			bk.head++
			e.ringN--
			if fire := b.fire; fire != nil {
				// Owned: the callback may recycle or re-post b, so
				// nothing here reads it afterwards.
				e.fired++
				fire(b)
				continue
			}
			if b.slot != noSlot {
				if e.slots[b.slot].cancelled {
					e.freeSlot(b.slot)
					e.bodies.Put(b)
					continue
				}
				// It is firing now, so the handle reports stopped from
				// here on (matching historical behavior even for Stopped
				// calls made during the callback).
				e.freeSlot(b.slot)
			}
			e.fired++
			b.fn()
			e.bodies.Put(b)
		}
	}
}

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }
