package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/linearize"
	"repro/internal/perf"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/trace"
)

// span is one timed call into a layer. Spans of one run share id 0; the
// spans of route i share id i+1.
type span struct {
	id         int32
	parent     int32 // index into tracer.spans; -1 for a root
	name       uint16
	start, end int64 // ns since the tracer was created
}

// tracer records spans in memory around the benchmark's calls into each
// layer, and the per-event counts the spans cannot give. The program under
// test is never changed: the spans come from wrappers, hooks and timers in
// this package, and from the program's own executor profiler.
type tracer struct {
	t0    time.Time
	names []string
	index map[string]uint16
	spans []span
	stack []int32 // open spans, innermost last
	id    int32

	// round engine
	rounds    map[int]int32 // round number -> its span
	roundEnd  int64
	byRound   []roundSpan // profiler spans, parented once the rounds are known
	imbalance []float64

	// message-level engine
	eventNs int64
	depths  []int32 // queue depth before each event
	events  int64
}

type roundSpan struct {
	round int
	span  int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: map[string]uint16{}, rounds: map[int]int32{}}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

func (t *tracer) intern(name string) uint16 {
	if i, ok := t.index[name]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

func (t *tracer) parent() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// open starts a span under the innermost open span.
func (t *tracer) open(name string) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{id: t.id, parent: t.parent(), name: t.intern(name), start: t.now()})
	t.stack = append(t.stack, i)
	return i
}

// close ends the innermost open span, which must be i.
func (t *tracer) close(i int32) {
	t.spans[i].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a span whose bounds are already known.
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{id: t.id, parent: parent, name: t.intern(name), start: start, end: end})
	return int32(len(t.spans) - 1)
}

// attachLin traces one linearize.Run: a span per round from OnRound, and the
// executor's phase and snapshot spans from its profiler.
func (t *tracer) attachLin(cfg *linearize.Config) {
	run := t.open("linearize.Run")
	t.roundEnd = t.spans[run].start
	cfg.OnRound = func(round int, _ *graph.Graph) {
		end := t.now()
		t.rounds[round] = t.add("linearize.round", run, t.roundEnd, end)
		t.roundEnd = end
	}
	cfg.Prof = perf.New(t)
}

// Emit receives the executor profiler's spans. A span event carries only its
// duration, so it is placed to end when it is emitted.
func (t *tracer) Emit(ev trace.Event) {
	if ev.Type != trace.EvSpan {
		return
	}
	switch {
	case ev.Kind == "imbalance":
		t.imbalance = append(t.imbalance, ev.Value)
	case strings.HasPrefix(ev.Kind, "phase/"), strings.HasPrefix(ev.Kind, "snapshot/"):
		end := t.now()
		i := t.add(ev.Kind, -1, end-int64(ev.Value), end)
		t.byRound = append(t.byRound, roundSpan{int(ev.T), i})
	}
	// shard/* spans are summed into the imbalance events; the allocation
	// events are replaced by the pass's own runtime counters.
}

// endLin closes the run span and parents the profiler spans: phases under
// their round, snapshots under their round's begin phase.
func (t *tracer) endLin() {
	t.close(t.stack[len(t.stack)-1])
	begin := map[int]int32{}
	for _, rs := range t.byRound {
		if t.names[t.spans[rs.span].name] == "phase/begin" {
			begin[rs.round] = rs.span
		}
	}
	for _, rs := range t.byRound {
		s := &t.spans[rs.span]
		if strings.HasPrefix(t.names[s.name], "snapshot/") {
			if b, ok := begin[rs.round]; ok {
				s.parent = b
				continue
			}
		}
		if r, ok := t.rounds[rs.round]; ok {
			s.parent = r
		}
	}
}

// wrap decorates the transport handed to the protocol, keeping its
// failure-detector capability when it has one.
func (t *tracer) wrap(net phys.Transport) phys.Transport {
	tt := &tracedTransport{Transport: net, t: t}
	if fd, ok := net.(phys.FailureDetector); ok {
		return &tracedDetector{tracedTransport: tt, fd: fd}
	}
	return tt
}

// tracedTransport times the protocol-facing Send and Broadcast and wraps each
// registered handler.
type tracedTransport struct {
	phys.Transport
	t *tracer
}

func (tt *tracedTransport) Send(m phys.Message) bool {
	s := tt.t.open("phys.send")
	ok := tt.Transport.Send(m)
	tt.t.close(s)
	return ok
}

func (tt *tracedTransport) Broadcast(from ids.ID, kind string, payload any) int {
	s := tt.t.open("phys.send")
	n := tt.Transport.Broadcast(from, kind, payload)
	tt.t.close(s)
	return n
}

func (tt *tracedTransport) Register(v ids.ID, h phys.Handler) {
	tt.Transport.Register(v, phys.HandlerFunc(func(m phys.Message) {
		s := tt.t.open("ssr.handle")
		h.HandleMessage(m)
		tt.t.close(s)
	}))
}

type tracedDetector struct {
	*tracedTransport
	fd phys.FailureDetector
}

func (td *tracedDetector) SubscribeLeases(self ids.ID, cb phys.LeaseFunc) {
	td.fd.SubscribeLeases(self, cb)
}

// runUntilConsistent is Cluster.RunUntilConsistent's loop, checking every 8
// ticks, with a between-event hook that times each event and samples the
// queue depth, and a span around each Consistent() call.
func (t *tracer) runUntilConsistent(cl *ssr.Cluster, deadline sim.Time) (sim.Time, bool) {
	run := t.open("ssr.bootstrap")
	defer t.close(run)
	eng := cl.Net.Engine()
	const checkEvery = sim.Time(8)
	for next := eng.Now() + checkEvery; ; next += checkEvery {
		if next > deadline {
			next = deadline
		}
		t.runEngine(eng, next)
		s := t.open("ssr.consistent")
		ok := cl.Consistent()
		t.close(s)
		if ok {
			return eng.Now(), true
		}
		if next >= deadline || eng.Pending() == 0 {
			return eng.Now(), false
		}
	}
}

func (t *tracer) runEngine(eng *sim.Engine, deadline sim.Time) {
	last := time.Now()
	t.events += eng.RunUntil(deadline, func() bool {
		now := time.Now()
		t.eventNs += now.Sub(last).Nanoseconds()
		last = now
		t.depths = append(t.depths, int32(eng.Pending()))
		return false
	})
	t.eventNs += time.Since(last).Nanoseconds()
}

// beginRoute opens the span of route i; a nil tracer does nothing.
func (t *tracer) beginRoute(i int) {
	if t == nil {
		return
	}
	t.id = int32(i + 1)
	t.open("ssr.RouteData")
}

func (t *tracer) endRoute() {
	if t == nil {
		return
	}
	t.close(t.stack[len(t.stack)-1])
}

// timeBFS times a standalone ShortestPath on every routed pair.
func (t *tracer) timeBFS(g *graph.Graph, pairs [][2]ids.ID) {
	for i, pr := range pairs {
		t.id = int32(i + 1)
		s := t.open("graph.ShortestPath")
		g.ShortestPath(pr[0], pr[1])
		t.close(s)
	}
}

// agg sums the spans of one name.
type agg struct {
	count   int
	totalNs int64
	selfNs  int64
	durs    []float64
}

// aggregate folds the spans with the given id by name. A span's self time
// is its duration minus the durations of its children.
func (t *tracer) aggregate(id int32) map[string]*agg {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*agg{}
	for i, s := range t.spans {
		if s.id != id {
			continue
		}
		name := t.names[s.name]
		a := out[name]
		if a == nil {
			a = &agg{}
			out[name] = a
		}
		d := s.end - s.start
		a.count++
		a.totalNs += d
		a.selfNs += d - child[i]
		a.durs = append(a.durs, float64(d))
	}
	return out
}

// layerMetrics derives the per-layer timings from the spans and hooks. The
// layer spans are taken from the run (id 0), the phase that wall_s times.
func (t *tracer) layerMetrics() map[string]float64 {
	a := t.aggregate(0)
	get := func(name string) *agg {
		if x := a[name]; x != nil {
			return x
		}
		return &agg{}
	}
	sec := func(name string) float64 { return float64(get(name).totalNs) / 1e9 }
	m := map[string]float64{}

	if rounds := get("linearize.round").durs; len(rounds) > 0 {
		m["linearize.round_ms_p50"] = median(rounds) / 1e6
		m["linearize.round_ms_max"] = percentile(rounds, 1) / 1e6
	}
	m["linearize.begin_s"] = sec("phase/begin")
	m["linearize.end_s"] = sec("phase/end")
	m["sim.shard.prepare_s"] = sec("phase/prepare")
	m["sim.shard.execute_s"] = sec("phase/execute")
	m["sim.shard.finish_s"] = sec("phase/finish")
	seq := sec("phase/begin") + sec("phase/finish") + sec("phase/end")
	if all := seq + sec("phase/prepare") + sec("phase/execute") + sec("phase/waves"); all > 0 {
		m["sim.shard.seq_share"] = seq / all
	}
	if len(t.imbalance) > 0 {
		m["sim.shard.imbalance_mean"] = mean(t.imbalance)
	}
	m["graph.snapshot_s"] = sec("snapshot/rebuild") + sec("snapshot/delta")
	var bfs []float64
	for _, s := range t.spans {
		if t.names[s.name] == "graph.ShortestPath" {
			bfs = append(bfs, float64(s.end-s.start))
		}
	}
	if len(bfs) > 0 {
		m["graph.bfs_us_p50"] = median(bfs) / 1e3
	}

	handle := get("ssr.handle")
	m["ssr.handle_calls"] = float64(handle.count)
	m["ssr.handle_self_s"] = float64(handle.selfNs) / 1e9
	m["phys.send_calls"] = float64(get("phys.send").count)
	m["phys.send_s"] = sec("phys.send")
	m["ssr.oracle_calls"] = float64(get("ssr.consistent").count)
	m["ssr.oracle_s"] = sec("ssr.consistent")
	if t.events > 0 {
		m["sim.event_ns_mean"] = float64(t.eventNs) / float64(t.events)
		// Handlers run only inside events, so this is event time outside them.
		m["sim.timer_and_queue_s"] = float64(t.eventNs-handle.totalNs) / 1e9
		d := make([]float64, len(t.depths))
		for i, x := range t.depths {
			d[i] = float64(x)
		}
		m["sim.queue_depth_p50"] = median(d)
		m["sim.queue_depth_max"] = percentile(d, 1)
	}
	return m
}

// writeSpans writes every span, one JSON object a line, gzipped, after the
// environment stamp.
func (t *tracer) writeSpans(path string, env envStamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	head, _ := json.Marshal(map[string]any{"env": env})
	bw.Write(head)
	bw.WriteByte('\n')
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"span":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.id, s.parent, t.names[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (q in (0, 1]).
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}
