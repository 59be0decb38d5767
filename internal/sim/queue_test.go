package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/trace"
)

// canceler is the handle both queues hand out.
type canceler interface{ Cancel() }

// queueAPI is the part of Engine the differential test drives.
type queueAPI interface {
	At(t Time, fn func()) canceler
	After(d Time, fn func()) canceler
	Now() Time
	Pending() int
	Run(budget int64) int64
	RunUntil(deadline Time, stop func() bool) int64
}

type engineAPI struct{ *Engine }

func (a engineAPI) At(t Time, fn func()) canceler    { return a.Engine.At(t, fn) }
func (a engineAPI) After(d Time, fn func()) canceler { return a.Engine.After(d, fn) }

// refQueue is the reference: a list kept sorted by (At, seq), where seq
// counts At calls. Like Engine, it keeps cancelled entries queued until they
// reach the front, so RunUntil calls stop() once per entry on both.
type refQueue struct {
	now  Time
	seq  int64
	q    []*refEvent
	live int
}

type refEvent struct {
	at   Time
	seq  int64
	fn   func()
	done bool
	ref  *refQueue
}

func (ev *refEvent) Cancel() {
	if !ev.done {
		ev.done = true
		ev.ref.live--
	}
}

func (r *refQueue) At(t Time, fn func()) canceler {
	if t < r.now {
		t = r.now
	}
	ev := &refEvent{at: t, seq: r.seq, fn: fn, ref: r}
	r.seq++
	i := sort.Search(len(r.q), func(i int) bool {
		q := r.q[i]
		return q.at > t || (q.at == t && q.seq > ev.seq)
	})
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
	r.live++
	return ev
}

func (r *refQueue) After(d Time, fn func()) canceler {
	if d < 0 {
		d = 0
	}
	return r.At(r.now+d, fn)
}

func (r *refQueue) Now() Time    { return r.now }
func (r *refQueue) Pending() int { return r.live }

func (r *refQueue) step() bool {
	for len(r.q) > 0 {
		ev := r.q[0]
		r.q = r.q[1:]
		if ev.done {
			continue
		}
		ev.done = true
		r.live--
		r.now = ev.at
		ev.fn()
		return true
	}
	return false
}

func (r *refQueue) Run(budget int64) int64 {
	var fired int64
	for (budget <= 0 || fired < budget) && r.step() {
		fired++
	}
	return fired
}

func (r *refQueue) RunUntil(deadline Time, stop func() bool) int64 {
	var fired int64
	for len(r.q) > 0 {
		if stop != nil && stop() {
			break
		}
		if next := r.q[0]; next.done {
			r.q = r.q[1:]
			continue
		} else if next.at > deadline {
			break
		}
		r.step()
		fired++
	}
	return fired
}

// driveQueue runs one seeded random operation sequence against q and
// returns the log of what was observed: every firing with Now() and
// Pending() inside the callback, and Now()/Pending() after every top-level
// operation. Two queues with equal semantics give equal logs.
func driveQueue(q queueAPI, seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var handles []canceler
	nextID := 0
	const maxEvents = 4000

	var schedule func(t Time) // absolute time; may be in the past
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d now=%d pending=%d", id, q.Now(), q.Pending()))
			if nextID >= maxEvents {
				return
			}
			switch rng.Intn(8) {
			case 0, 1: // the next tick: the bulk of a bootstrap's frames
				schedule(q.Now() + 1)
			case 2: // After(0): joins the tick being drained
				id := nextID
				nextID++
				handles = append(handles, q.After(0, fire(id)))
			case 3: // a time in the past clamps to now
				schedule(q.Now() - Time(rng.Intn(5)))
			case 4: // a periodic timer
				schedule(q.Now() + Time(8+rng.Intn(57)))
			case 5: // cancel some handle, possibly one that already fired
				if len(handles) > 0 {
					handles[rng.Intn(len(handles))].Cancel()
				}
			}
		}
	}
	schedule = func(t Time) {
		id := nextID
		nextID++
		handles = append(handles, q.At(t, fire(id)))
	}

	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); op {
		case 0, 1:
			schedule(q.Now() + Time(rng.Intn(20)))
		case 2:
			schedule(q.Now() - Time(rng.Intn(10)))
		case 3: // far-future timer
			schedule(q.Now() + Time(500+rng.Intn(2000)))
		case 4:
			if len(handles) > 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		case 5:
			n := q.Run(int64(1 + rng.Intn(20)))
			log = append(log, fmt.Sprintf("run fired=%d", n))
		case 6, 7: // RunUntil, then schedule before the tick it peeked at
			d := q.Now() + Time(rng.Intn(15))
			n := q.RunUntil(d, nil)
			log = append(log, fmt.Sprintf("until %d fired=%d", d, n))
			schedule(q.Now() + Time(rng.Intn(int(d-q.Now())+2)))
		case 8: // RunUntil cut short by stop()
			calls, limit := 0, rng.Intn(6)
			n := q.RunUntil(q.Now()+Time(rng.Intn(40)), func() bool {
				calls++
				return calls > limit
			})
			log = append(log, fmt.Sprintf("stopped fired=%d calls=%d", n, calls))
		case 9:
			n := q.RunUntil(q.Now()+Time(rng.Intn(40)), nil)
			log = append(log, fmt.Sprintf("until fired=%d", n))
		}
		log = append(log, fmt.Sprintf("op %d now=%d pending=%d", i, q.Now(), q.Pending()))
	}
	n := q.Run(0)
	log = append(log, fmt.Sprintf("drain fired=%d now=%d pending=%d", n, q.Now(), q.Pending()))
	return log
}

func TestEngineMatchesReferenceQueue(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := driveQueue(engineAPI{NewEngine(seed)}, seed, 300)
		want := driveQueue(&refQueue{}, seed, 300)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<missing>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: line %d: got %q, want %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, want %d", seed, len(got), len(want))
		}
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() {})
	e.At(7, func() {}).Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d with one live and one cancelled event, want 1", got)
	}
	// The cancelled entry is still queued behind the live one: Step must
	// drain it rather than stop at Pending() == 0.
	if !e.Step() || e.Now() != 5 || e.Pending() != 0 {
		t.Fatalf("after one Step: now=%d pending=%d", e.Now(), e.Pending())
	}
	if e.Step() {
		t.Error("Step fired a cancelled event")
	}
	// A cancelled entry ahead of a live one does not stop RunUntil.
	e.At(8, func() {}).Cancel()
	ran := false
	e.At(9, func() { ran = true })
	if e.RunUntil(10, nil) != 1 || !ran {
		t.Error("RunUntil did not fire the live event behind a cancelled one")
	}
}

func TestCancelAfterFireIsSilent(t *testing.T) {
	rec := &trace.Recorder{}
	e := NewEngine(1, WithTracer(rec))
	ev := e.At(1, func() {})
	e.At(2, func() {})
	e.Step()
	ev.Cancel()
	if got := len(rec.Filter(trace.EvSimCancel)); got != 0 {
		t.Errorf("Cancel after firing emitted %d EvSimCancel, want 0", got)
	}
	if got := e.Pending(); got != 1 {
		t.Errorf("Pending = %d after cancelling a fired event, want 1", got)
	}
	// Cancelling from inside the event's own callback is after firing too.
	var self *Event
	self = e.At(3, func() { self.Cancel() })
	e.Run(0)
	if got := len(rec.Filter(trace.EvSimCancel)); got != 0 {
		t.Errorf("self-cancel emitted %d EvSimCancel, want 0", got)
	}
	if e.EventsExecuted() != 3 || e.Pending() != 0 {
		t.Errorf("executed=%d pending=%d, want 3 and 0", e.EventsExecuted(), e.Pending())
	}
}

// BenchmarkEngine measures the event queue under the load a bootstrap puts
// on it at first consistency: about 30k latency-1 frames pending at once
// (each fired frame sends the next one), plus periodic timers due 8-64
// ticks ahead. One op is one fired event, so ns/op and allocs/op read as
// ns/event and allocs/event.
func BenchmarkEngine(b *testing.B) {
	const frames, timers = 30000, 512
	e := NewEngine(1)
	rng := e.Rand()
	var frame, timer func()
	frame = func() { e.After(1, frame) }
	timer = func() { e.After(Time(8+rng.Intn(57)), timer) }
	for i := 0; i < frames; i++ {
		e.After(1, frame)
	}
	for i := 0; i < timers; i++ {
		e.After(Time(8+rng.Intn(57)), timer)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if fired := e.Run(int64(b.N)); fired != int64(b.N) {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}
