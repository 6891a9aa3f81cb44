package sim

import "testing"

// FuzzEngineOrder is a differential test of the calendar-queue engine
// against refSched, a linear-scan queue ordered by (at, seq). The input
// is a program of 4-byte ops — Schedule, At, Cancel, Stopped probes and
// owned-event posts — run once at time zero and then, one op per fired
// event, from inside callbacks, so events schedule more events at the
// current instant (ties), into the ring, into the overflow heap, and in
// the past (clamped), and owned events are re-posted from their own
// callbacks. Both sides must produce the same log of firings and
// Stopped answers. The first byte picks how the engine is driven: one
// Run, or RunBefore/AdvanceTo windows like the sharded runner's.
//
// The committed corpus under testdata/fuzz replays with plain go test;
// explore with go test -fuzz FuzzEngineOrder ./internal/sim.
func FuzzEngineOrder(f *testing.F) {
	// A timer at 10 ms, cancelled at once; one at 80 ms (overflow) and
	// its Stopped answers before and after a callback cancels it.
	f.Add([]byte{0, opAt, 3, 2, 0, opCancel, 0, 0, 0, opAt, 4, 1, 0, opStopped, 0, 0, 1, opSchedule, 3, 1, 0, opCancel, 0, 0, 1, opStopped, 0, 0, 1})
	// Owned bodies posted at one instant and re-posting themselves from
	// their own callbacks (op i+1 posts the body op i's event was), in
	// 1 ms windows.
	f.Add([]byte{1, opPost, 0, 0, 0, opPost, 0, 0, 0, opPost, 2, 3, 1, opPost, 1, 0, 1, opAbs, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		p := &prog{window: windows[int(data[0])%len(windows)]}
		for b := data[1:]; len(b) >= 4 && len(p.ops) < 64; b = b[4:] {
			p.ops = append(p.ops, op{kind: b[0] % numOps, at: opTime(b[1], b[2]), arg: int(b[3])})
		}
		want := p.play(&refSched{})
		got := p.play(&engSched{e: NewEngine(1)})
		if len(got) != len(want) {
			t.Fatalf("engine logged %d entries, reference %d\nengine %v\nref    %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("entry %d: engine %d, reference %d\nengine %v\nref    %v", i, got[i], want[i], got, want)
			}
		}
	})
}

// Program ops.
const (
	opSchedule = iota // fire-and-forget at now+at
	opAt              // cancellable timer at now+at
	opAbs             // Schedule at the absolute time at (often in the past)
	opCancel          // cancel timer handle arg
	opStopped         // log whether timer handle arg is Stopped
	opPost            // post owned body arg%numOwned at now+at, unless pending
	numOps
)

const numOwned = 4

// windows are the engine drive modes: 0 is a single Run.
var windows = []Time{0, Millisecond, 7 * Millisecond, 150 * Millisecond}

// opTime spreads delays over same-instant ties, one ring slot, the ring
// window and the overflow heap.
func opTime(scale, v byte) Time {
	units := []Time{0, Microsecond, 100 * Microsecond, 5 * Millisecond, 80 * Millisecond}
	return Time(v%32) * units[int(scale)%len(units)]
}

type op struct {
	kind uint8
	at   Time
	arg  int
}

// sched is the surface a program runs against.
type sched interface {
	now() Time
	schedule(at Time, fire func())
	timer(at Time, fire func()) int // returns a handle index
	cancel(h int)
	stopped(h int) bool
	post(at Time, j int, fire func()) // owned body j
	run(window Time)
}

// prog interprets ops identically against either sched. Every event
// created by op i runs op i+1 when it fires, until the budget is spent.
type prog struct {
	ops     []op
	window  Time
	budget  int
	ids     int
	timers  int
	pending [numOwned]bool
	log     []int
}

func (p *prog) play(s sched) []int {
	p.budget, p.ids, p.timers, p.pending, p.log = 500, 0, 0, [numOwned]bool{}, nil
	for i := range p.ops {
		p.exec(s, i)
	}
	s.run(p.window)
	return p.log
}

func (p *prog) exec(s sched, i int) {
	o := p.ops[i]
	id := p.ids
	p.ids++
	fire := func() {
		p.log = append(p.log, id)
		if p.budget > 0 {
			p.budget--
			p.exec(s, (i+1)%len(p.ops))
		}
	}
	switch o.kind {
	case opSchedule:
		s.schedule(s.now()+o.at, fire)
	case opAt:
		s.timer(s.now()+o.at, fire)
		p.timers++
	case opAbs:
		s.schedule(o.at, fire)
	case opCancel:
		if p.timers > 0 {
			s.cancel(o.arg % p.timers)
		}
	case opStopped:
		if p.timers > 0 {
			stopped := 0
			if s.stopped(o.arg % p.timers) {
				stopped = 1
			}
			p.log = append(p.log, -1-stopped)
		}
	case opPost:
		j := o.arg % numOwned
		if p.pending[j] {
			return
		}
		p.pending[j] = true
		s.post(s.now()+o.at, j, func() {
			p.pending[j] = false
			fire()
		})
	}
}

// engSched drives the engine under test.
type engSched struct {
	e      *Engine
	timers []Timer
	owned  [numOwned]Event
	fires  [numOwned]func()
}

func (s *engSched) now() Time                     { return s.e.Now() }
func (s *engSched) schedule(at Time, fire func()) { s.e.Schedule(at, fire) }
func (s *engSched) cancel(h int)                  { s.timers[h].Cancel() }
func (s *engSched) stopped(h int) bool            { return s.timers[h].Stopped() }
func (s *engSched) timer(at Time, fire func()) int {
	s.timers = append(s.timers, s.e.At(at, fire))
	return len(s.timers) - 1
}

func (s *engSched) post(at Time, j int, fire func()) {
	s.fires[j] = fire
	s.e.Post(at, &s.owned[j], func(ev *Event) {
		for k := range s.owned {
			if ev == &s.owned[k] {
				s.fires[k]()
			}
		}
	})
}

func (s *engSched) run(window Time) {
	if window == 0 {
		s.e.Run(1 << 50)
		return
	}
	for end := window; s.e.Pending() > 0; end += window {
		s.e.RunBefore(end)
		s.e.AdvanceTo(end)
	}
}

// refSched is the reference: an unordered slice scanned for the
// minimum (at, seq) on every pop, with per-handle cancelled/done flags.
type refSched struct {
	t    Time
	seq  uint64
	q    []refEv
	dead []bool // cancelled
	done []bool // popped
}

type refEv struct {
	at     Time
	seq    uint64
	handle int // -1: no handle
	fire   func()
}

func (r *refSched) now() Time { return r.t }

func (r *refSched) push(at Time, h int, fire func()) {
	if at < r.t {
		at = r.t
	}
	r.q = append(r.q, refEv{at, r.seq, h, fire})
	r.seq++
}

func (r *refSched) schedule(at Time, fire func())    { r.push(at, -1, fire) }
func (r *refSched) post(at Time, _ int, fire func()) { r.push(at, -1, fire) }
func (r *refSched) stopped(h int) bool               { return r.done[h] || r.dead[h] }

func (r *refSched) timer(at Time, fire func()) int {
	r.dead, r.done = append(r.dead, false), append(r.done, false)
	r.push(at, len(r.done)-1, fire)
	return len(r.done) - 1
}

func (r *refSched) cancel(h int) {
	if !r.done[h] {
		r.dead[h] = true
	}
}

func (r *refSched) run(Time) {
	for len(r.q) > 0 {
		m := 0
		for i, v := range r.q {
			if v.at < r.q[m].at || (v.at == r.q[m].at && v.seq < r.q[m].seq) {
				m = i
			}
		}
		v := r.q[m]
		r.q = append(r.q[:m], r.q[m+1:]...)
		r.t = v.at
		if v.handle >= 0 {
			r.done[v.handle] = true
			if r.dead[v.handle] {
				continue
			}
		}
		v.fire()
	}
}
