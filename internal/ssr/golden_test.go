package ssr

// Golden pin of the message-level plane. Every frame of these bootstraps
// goes through sim.Engine, so the first-consistent tick, the frame total,
// the fired-event count and a hash of the full trace stream pin the event
// queue's firing order end to end. The stream carries the engine's EvSimFire
// events, whose value is the queue depth after the pop, so the semantics of
// Engine.Pending are pinned too. The values were produced by the
// container/heap queue that preceded the per-tick FIFO queue; a change that
// moves any of them changed behaviour.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vrr"
)

// hashTracer folds every event it receives into a SHA-256, so a run of
// millions of events is pinned without holding them in memory.
type hashTracer struct {
	h   hash.Hash
	n   int64
	buf []byte
}

func (t *hashTracer) Emit(e trace.Event) {
	b := strconv.AppendInt(t.buf[:0], e.T, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.Type), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(e.Node), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(e.Peer), 10)
	b = append(b, ' ')
	b = strconv.AppendQuote(b, e.Kind)
	b = append(b, ' ')
	b = strconv.AppendQuote(b, e.Aux)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, e.Value, 'g', -1, 64)
	b = append(b, '\n')
	t.h.Write(b)
	t.buf = b
	t.n++
}

// goldenBoot is what one pinned bootstrap must reproduce.
type goldenBoot struct {
	At       sim.Time // first-consistent tick
	Frames   int64    // Counters().Total()
	Fired    int64    // EventsExecuted()
	TraceEvs int64    // events in the trace stream
	TraceSHA string   // SHA-256 of the trace stream
}

func (g goldenBoot) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %q}", g.At, g.Frames, g.Fired, g.TraceEvs, g.TraceSHA)
}

// goldenBootN is the pinned network size, on a unit-disk topology.
const goldenBootN = 256

type bootstrapper interface {
	RunUntilConsistent(deadline sim.Time) (sim.Time, bool)
}

var goldenBootCases = []struct {
	name  string
	loss  float64 // > 0 puts rel.New over the raw network
	build func(phys.Transport) bootstrapper
}{
	{"ssr/raw", 0, func(net phys.Transport) bootstrapper {
		return NewCluster(net, Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
	}},
	{"ssr/rel-loss15", 0.15, func(net phys.Transport) bootstrapper {
		return NewCluster(net, Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
	}},
	{"vrr/raw", 0, func(net phys.Transport) bootstrapper {
		return vrr.NewCluster(net, vrr.Config{CloseRing: true})
	}},
}

var goldenBoots = map[string]goldenBoot{
	"ssr/raw":        {160, 188784, 191850, 573991, "2759b8be10feceea1fb1327869ddb3a309e93dd02c3626a74adae0331812445e"},
	"ssr/rel-loss15": {240, 491164, 671721, 1781323, "02afbe602ca6acf82afb0f1e61c3ed44390d804b1de033313652bb649272bc75"},
	"vrr/raw":        {288, 381034, 389950, 1147336, "dd9f0e2e93830a3949b5221578f2b757073d0566724add3d12c14a6de38b0bd8"},
}

func TestGoldenBootstraps(t *testing.T) {
	g, err := graph.Generate(graph.TopoUnitDisk, goldenBootN, graph.RandomIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenBootCases {
		tr := &hashTracer{h: sha256.New()}
		opts := []phys.Option{phys.WithTracer(tr)}
		if c.loss > 0 {
			opts = append(opts, phys.WithLoss(c.loss))
		}
		raw := phys.NewNetwork(sim.NewEngine(1, sim.WithTracer(tr)), g, opts...)
		var net phys.Transport = raw
		if c.loss > 0 {
			net = rel.New(raw, rel.DefaultConfig())
		}
		at, ok := c.build(net).RunUntilConsistent(sim.Time(goldenBootN) * 4096)
		if !ok {
			t.Errorf("%s: not consistent by tick %d", c.name, at)
		}
		got := goldenBoot{
			At: at, Frames: raw.Counters().Total(), Fired: raw.Engine().EventsExecuted(),
			TraceEvs: tr.n, TraceSHA: hex.EncodeToString(tr.h.Sum(nil)),
		}
		if want, ok := goldenBoots[c.name]; !ok || got != want {
			t.Errorf("%s:\n  got  %s\n  want %s\n  %q: %s,", c.name, got, want, c.name, got)
		}
	}
}
