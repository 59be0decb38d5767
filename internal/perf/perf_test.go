package perf

import (
	"testing"
	"time"

	"repro/internal/trace"
)

type capture struct{ events []trace.Event }

func (c *capture) Emit(e trace.Event) { c.events = append(c.events, e) }

// TestNilProfilerIsSafe pins the "nil means off" idiom: every method on a
// nil profiler is a no-op, and New(nil) collapses to nil.
func TestNilProfilerIsSafe(t *testing.T) {
	if New(nil) != nil {
		t.Fatal("New(nil) should return nil")
	}
	var p *Profiler
	p.RoundStart(0)
	p.PhaseTime(0, "prepare", time.Millisecond)
	p.ShardTime(0, "execute", 3, time.Millisecond)
	p.RoundEnd(0)
}

func find(evs []trace.Event, kind string) (trace.Event, bool) {
	for _, e := range evs {
		if e.Type == trace.EvSpan && e.Kind == kind {
			return e, true
		}
	}
	return trace.Event{}, false
}

// TestProfilerEmitsSpans drives one synthetic round and checks every span
// family comes out with the right kind, aux and value.
func TestProfilerEmitsSpans(t *testing.T) {
	c := &capture{}
	p := New(c)
	p.RoundStart(7)
	p.PhaseTime(7, "prepare", 5*time.Millisecond)
	p.ShardTime(7, "prepare", 0, 3*time.Millisecond)
	p.ShardTime(7, "prepare", 1, time.Millisecond)
	p.RoundEnd(7)

	for _, e := range c.events {
		if e.Type != trace.EvSpan {
			t.Fatalf("non-span event emitted: %s", e)
		}
		if e.T != 7 {
			t.Fatalf("span timestamp %d, want round 7: %s", e.T, e)
		}
	}
	ph, ok := find(c.events, "phase/prepare")
	if !ok || ph.Value != float64(5*time.Millisecond) {
		t.Fatalf("phase/prepare span wrong: %v %v", ph, ok)
	}
	sh, ok := find(c.events, "shard/prepare")
	if !ok || sh.Aux != "0" || sh.Value != float64(3*time.Millisecond) {
		t.Fatalf("shard/prepare span wrong: %v %v", sh, ok)
	}
	// Imbalance: busy 3ms and 1ms -> mean 2ms, max 3ms, ratio 1.5.
	imb, ok := find(c.events, "imbalance")
	if !ok || imb.Value != 1.5 {
		t.Fatalf("imbalance span wrong: %v %v", imb, ok)
	}
	for _, kind := range []string{"allocs", "mallocs", "gc"} {
		if e, ok := find(c.events, kind); !ok || e.Value < 0 {
			t.Fatalf("%s span missing or negative: %v %v", kind, e, ok)
		}
	}
}

// TestProfilerResetsPerRound pins that the imbalance accumulator is
// per-round: a second round's ratio reflects only its own shard times.
func TestProfilerResetsPerRound(t *testing.T) {
	c := &capture{}
	p := New(c)
	p.RoundStart(0)
	p.ShardTime(0, "execute", 0, 10*time.Millisecond)
	p.ShardTime(0, "execute", 1, 0)
	p.RoundEnd(0)

	c.events = nil
	p.RoundStart(1)
	p.ShardTime(1, "execute", 0, 2*time.Millisecond)
	p.ShardTime(1, "execute", 1, 2*time.Millisecond)
	p.RoundEnd(1)
	imb, ok := find(c.events, "imbalance")
	if !ok || imb.Value != 1.0 {
		t.Fatalf("round 2 imbalance = %v (ok=%v), want 1.0", imb.Value, ok)
	}
}
