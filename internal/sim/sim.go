// Package sim is a deterministic discrete-event simulation engine.
//
// Protocol experiments in this reproduction run in one of two execution
// models, both provided here:
//
//   - The *event* model: a queue of timestamped events with a seeded random
//     source. SSR, VRR and ISPRP message exchanges run in this model,
//     including per-link latencies and losses. Time is integer ticks, and
//     events fire in order of their tick and, within a tick, in the order
//     they were scheduled. The queue is a calendar of per-tick FIFOs: the
//     tick being drained, a map of later ticks' FIFOs and a small min-heap
//     of those ticks. Most events are frames due on the next tick, so
//     scheduling one is an append and firing one an unlink.
//   - The *round* model: the synchronous rounds that the self-stabilization
//     literature (Onus et al.) analyzes — in each round every node observes
//     the current global state and all actions apply simultaneously. The
//     abstract linearization engine runs in this model. A random sequential
//     daemon is also provided, because a self-stabilizing algorithm must
//     converge under any fair scheduler.
//
// All randomness flows through the engine's seeded source, so every
// experiment is reproducible from its seed.
package sim

import (
	"math/rand"

	"repro/internal/trace"
)

// Time is simulated time in abstract ticks.
type Time int64

// Event is a callback scheduled at a point in simulated time. Events of the
// same tick wait in one FIFO, linked through next; an event leaves the list
// (next reset to nil) when it is popped, so fired events are not kept
// reachable by the queue.
type Event struct {
	At Time
	Fn func()

	next *Event  // FIFO successor among events of the same tick
	done bool    // fired or cancelled: the event will not fire (again)
	eng  *Engine // owning engine, for the live count and cancel tracing
}

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event fired; then it is a no-op and emits nothing.
func (e *Event) Cancel() {
	if e.done {
		return
	}
	e.done = true
	if e.eng != nil {
		e.eng.live--
		if e.eng.tracer != nil {
			e.eng.tracer.Emit(trace.Event{T: int64(e.eng.now), Type: trace.EvSimCancel})
		}
	}
}

// fifo is the singly linked list of one tick's events, in scheduling order.
type fifo struct{ head, tail *Event }

func (f *fifo) push(ev *Event) {
	if f.tail == nil {
		f.head = ev
	} else {
		f.tail.next = ev
	}
	f.tail = ev
}

// tickHeap is a binary min-heap of the distinct ticks parked in the tick
// map. It stays small: one entry per pending tick, not per event.
type tickHeap []Time

func (h *tickHeap) push(t Time) {
	q := append(*h, t)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *tickHeap) pop() Time {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && q[r] < q[l] {
			l = r
		}
		if q[i] <= q[l] {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	*h = q
	return top
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; node goroutine experiments wrap it behind a channel (see
// package phys).
//
// The queue is a calendar of per-tick FIFOs. cur holds the events of tick
// curAt, the earliest pending tick, which is being drained; every later
// tick's FIFO is parked in byTick, and ticks holds the parked ticks in a
// min-heap. Within a tick, events fire in the order of their At calls:
// scheduling appends to the tick's FIFO, and every call comes later than
// every event already queued.
type Engine struct {
	now    Time
	cur    fifo
	curAt  Time
	byTick map[Time]fifo
	ticks  tickHeap
	live   int // queued events neither fired nor cancelled
	rng    *rand.Rand
	events int64 // total events executed
	tracer trace.Tracer
}

// Option configures an Engine at construction time. The functional-option
// form is the supported way to wire cross-cutting concerns such as tracing
// — post-hoc mutators are deprecated shims.
type Option func(*Engine)

// WithTracer installs the engine's tracer. Firings emit EvSimFire with the
// remaining queue depth (Pending after the pop) as a gauge value;
// cancellations emit EvSimCancel.
// Without this option the engine keeps the zero-cost nil-tracer fast path.
func WithTracer(t trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// NewEngine returns an engine whose randomness is derived from seed,
// configured by the given options.
func NewEngine(seed int64, opts ...Option) *Engine {
	e := &Engine{byTick: make(map[Time]fifo), rng: rand.New(rand.NewSource(seed))}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's seeded random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsExecuted returns how many events have fired so far.
func (e *Engine) EventsExecuted() int64 { return e.events }

// Tracer returns the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() trace.Tracer { return e.tracer }

// Pending returns the number of queued events that have neither fired nor
// been cancelled.
func (e *Engine) Pending() int { return e.live }

// At schedules fn at absolute time t (clamped to now if in the past) and
// returns a cancellable handle.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{At: t, Fn: fn, eng: e}
	e.live++
	switch {
	case t == e.curAt:
		e.cur.push(ev)
	case t < e.curAt:
		// Only after RunUntil loaded a tick beyond its deadline: park that
		// FIFO back in the map and make t the tick being drained.
		if e.cur.head != nil {
			e.byTick[e.curAt] = e.cur
			e.ticks.push(e.curAt)
		}
		e.cur, e.curAt = fifo{ev, ev}, t
	default:
		f, ok := e.byTick[t]
		if !ok {
			e.ticks.push(t)
		}
		f.push(ev)
		e.byTick[t] = f
	}
	return ev
}

// After schedules fn d ticks from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// front returns the earliest queued event, fired-or-cancelled ones
// included, loading the next tick's FIFO when the current one is drained.
// It returns nil when nothing is queued.
func (e *Engine) front() *Event {
	if e.cur.head == nil {
		if len(e.ticks) == 0 {
			return nil
		}
		t := e.ticks.pop()
		e.cur, e.curAt = e.byTick[t], t
		delete(e.byTick, t)
	}
	return e.cur.head
}

// pop unlinks and returns the earliest queued event, or nil.
func (e *Engine) pop() *Event {
	ev := e.front()
	if ev == nil {
		return nil
	}
	e.cur.head = ev.next
	if e.cur.head == nil {
		e.cur.tail = nil
	}
	ev.next = nil
	return ev
}

// Step fires the next event and reports whether one existed.
func (e *Engine) Step() bool {
	for {
		ev := e.pop()
		if ev == nil {
			return false
		}
		if ev.done {
			continue
		}
		ev.done = true
		e.live--
		e.now = ev.At
		e.events++
		if e.tracer != nil {
			e.tracer.Emit(trace.Event{T: int64(e.now), Type: trace.EvSimFire, Value: float64(e.live)})
		}
		ev.Fn()
		return true
	}
}

// Run fires events until the queue is empty or the event budget is
// exhausted. A budget <= 0 means unlimited. It returns the number of events
// fired by this call.
func (e *Engine) Run(budget int64) int64 {
	var fired int64
	for budget <= 0 || fired < budget {
		if !e.Step() {
			break
		}
		fired++
	}
	return fired
}

// RunUntil fires events until simulated time exceeds deadline, the queue
// drains, or stop() returns true (checked between events). It returns the
// number of events fired.
func (e *Engine) RunUntil(deadline Time, stop func() bool) int64 {
	var fired int64
	for e.front() != nil {
		if stop != nil && stop() {
			break
		}
		// Peek: don't cross the deadline. Cancelled entries are dropped on
		// the way, so they never hold the loop open.
		next := e.front()
		if next.done {
			e.pop()
			continue
		}
		if next.At > deadline {
			break
		}
		e.Step()
		fired++
	}
	return fired
}
