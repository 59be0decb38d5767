package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/linearize"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/vring"
)

// workload is one benchmark input: a topology and size, and the plane it
// drives. The program under test receives only the graph generated from the
// seed and, for routing, the src/dst pairs generated from it.
type workload struct {
	name    string
	topo    graph.Topology
	n       int
	ssr     bool              // message-level plane; false: round engine
	variant linearize.Variant // round engine only
	loss    float64           // ssr only: per-frame loss; > 0 puts rel.New over the raw network
	routes  int               // ssr only: src/dst pairs routed after first consistency, per run
	// instanceS is the time one instance (set-up, measured phase, checks)
	// takes on a 2-CPU machine. A run of s seconds measures s/instanceS
	// instances, each generated from its own seed: rounds, ticks and frames
	// to consistency vary by 10-35% between single topologies, so the
	// metrics are means over a fixed set of them.
	instanceS float64
}

// workloads are the benchmark's inputs. README.md gives the reason for each
// and the metrics each one should move.
var workloads = []workload{
	{name: "lin-lsn", topo: graph.TopoRegular, n: 10000, variant: linearize.LSN, instanceS: 4.8},
	{name: "lin-memory", topo: graph.TopoRegular, n: 20000, variant: linearize.Memory, instanceS: 5.0},
	{name: "ssr-boot-route", topo: graph.TopoUnitDisk, n: 512, ssr: true, routes: 2000, instanceS: 2.5},
	{name: "ssr-rel-loss", topo: graph.TopoUnitDisk, n: 256, ssr: true, loss: 0.15, instanceS: 2.0},
}

// instances is how many instances a run of d measures.
func (w workload) instances(d time.Duration) int {
	return max(1, int(d.Seconds()/w.instanceS))
}

// instanceSeed is the seed of instance k of the count instances of a run's
// seed; the instances of different seeds never overlap.
func instanceSeed(seed int64, k, count int) int64 {
	return seed*int64(count) + int64(k)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// linWorkers is the sharded executor's pool width on the round engine.
	linWorkers = 2
	// routeDeadline is the per-packet tick budget of RouteData, as in E7.
	routeDeadline = sim.Time(8192)
	// maxProblems caps the failure messages kept per pass; every failure
	// is still counted.
	maxProblems = 8
)

// ssrConfig is experiment E7's bootstrap configuration.
var ssrConfig = ssr.Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true}

// pass is what one set-up plus one measured phase produced.
type pass struct {
	setupS, wallS   float64
	cpuS, stealS    float64 // diagnostics: process CPU time, machine steal time
	allocMB, liveMB float64
	mallocs         float64
	gcCycles        float64
	gcPauseMs       float64
	// exact holds every count that must repeat exactly for one seed, keyed
	// by metric name: the exact end-to-end metrics and the per-layer counts.
	exact map[string]float64
	// routeHops is each route's hop count. The program breaks ties between
	// equally good next hops in map iteration order (cache.BestToward), so
	// the route phase does not repeat exactly; divergent counts the routes
	// whose hops differ from a reference pass, and the route means live
	// apart from exact.
	routeHops  []int
	routeMeans map[string]float64
	routeUS    []float64
	attempted  int
	failed     int
	problems   []string
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// runPass sets up the workload and runs its measured phase once. A nil
// tracer gives an untraced pass; workers only applies to the round engine,
// routes only to the message-level plane.
func runPass(w workload, seed int64, workers, routes int, tr *tracer) pass {
	if w.ssr {
		return ssrPass(w, seed, routes, tr)
	}
	return linPass(w, seed, workers, tr)
}

// setupReps is how many times a pass sets its instance up. The set-up time
// of one topology varies by up to 2x from one try to the next, so the pass
// reports the median and measures the last set-up.
const setupReps = 3

func timeSetup[T any](p *pass, build func() (T, error)) (T, error) {
	var v T
	var err error
	ds := make([]float64, 0, setupReps)
	for range setupReps {
		runtime.GC()
		t0 := time.Now()
		v, err = build()
		ds = append(ds, time.Since(t0).Seconds())
		if err != nil {
			break
		}
	}
	p.setupS = median(ds)
	return v, err
}

// meter measures the host cost of a measured phase.
type meter struct {
	t0     time.Time
	m0     runtime.MemStats
	cpu0   float64
	steal0 float64
}

// startMeter collects the set-up's garbage first, so the phase neither pays
// for it nor counts it.
func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.m0)
	m.cpu0, m.steal0 = cpuSeconds(), stealSeconds()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(p *pass) {
	p.wallS = time.Since(m.t0).Seconds()
	p.cpuS = cpuSeconds() - m.cpu0
	p.stealS = stealSeconds() - m.steal0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m.m0.TotalAlloc) / 1e6
	p.mallocs = float64(m1.Mallocs - m.m0.Mallocs)
	p.gcCycles = float64(m1.NumGC - m.m0.NumGC)
	p.gcPauseMs = float64(m1.PauseTotalNs-m.m0.PauseTotalNs) / 1e6
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds is the CPU time the hypervisor took from this machine's
// CPUs, summed over them, from /proc/stat; 0 where that is unavailable. It
// explains wall time that the program did not spend.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// liveHeapMB is the heap still reachable after a full collection; callers
// keep the phase's result alive across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func linPass(w workload, seed int64, workers int, tr *tracer) pass {
	p := pass{exact: map[string]float64{}, attempted: 1}
	g, err := timeSetup(&p, func() (*graph.Graph, error) {
		return graph.Generate(w.topo, w.n, graph.RandomIDs, seed)
	})
	if err != nil {
		p.fail("generate: %v", err)
		return p
	}
	cfg := linearize.Config{
		Variant:   w.variant,
		Scheduler: sim.Synchronous,
		CloseRing: true,
		Executor:  sim.ExecutorConfig{Workers: workers},
	}
	m := startMeter()
	if tr != nil {
		tr.attachLin(&cfg)
	}
	st, final := linearize.Run(g, cfg)
	if tr != nil {
		tr.endLin()
	}
	m.stop(&p)
	p.liveMB = liveHeapMB()
	runtime.KeepAlive(g)

	if !st.Converged {
		p.fail("not converged after %d rounds", st.Rounds)
	}
	if missing, _ := vring.LineDistance(final); missing != 0 {
		p.fail("final graph misses %d line edges", missing)
	}
	p.exact["consistency_time"] = float64(st.Rounds)
	p.exact["messages"] = float64(st.EdgesAdded + st.EdgesDropped)
	p.exact["graph.edge_adds"] = float64(st.EdgesAdded)
	p.exact["graph.edge_drops"] = float64(st.EdgesDropped)
	p.exact["graph.final_edges"] = float64(st.FinalEdges)
	p.exact["linearize.peak_degree"] = float64(st.PeakDegree)
	p.exact["sim.shard.interior_activations"] = float64(st.Par.InteriorActivations)
	p.exact["sim.shard.boundary_activations"] = float64(st.Par.BoundaryActivations)
	p.exact["sim.shard.wave_activations"] = float64(st.Par.WaveActivations)
	return p
}

func ssrPass(w workload, seed int64, routes int, tr *tracer) pass {
	p := pass{exact: map[string]float64{}, attempted: 1}
	type setup struct {
		g   *graph.Graph
		raw *phys.Network
		rn  *rel.Network
		cl  *ssr.Cluster
	}
	st, err := timeSetup(&p, func() (setup, error) {
		g, err := graph.Generate(w.topo, w.n, graph.RandomIDs, seed)
		if err != nil {
			return setup{}, err
		}
		var opts []phys.Option
		if w.loss > 0 {
			opts = append(opts, phys.WithLoss(w.loss))
		}
		s := setup{g: g, raw: phys.NewNetwork(sim.NewEngine(seed), g, opts...)}
		var net phys.Transport = s.raw
		if w.loss > 0 {
			s.rn = rel.New(s.raw, rel.DefaultConfig())
			net = s.rn
		}
		if tr != nil {
			net = tr.wrap(net)
		}
		s.cl = ssr.NewCluster(net, ssrConfig)
		return s, nil
	})
	if err != nil {
		p.fail("generate: %v", err)
		return p
	}
	g, raw, rn, cl, eng := st.g, st.raw, st.rn, st.cl, st.raw.Engine()

	deadline := sim.Time(w.n) * 4096
	m := startMeter()
	var at sim.Time
	var ok bool
	if tr != nil {
		at, ok = tr.runUntilConsistent(cl, deadline)
	} else {
		at, ok = cl.RunUntilConsistent(deadline)
	}
	m.stop(&p)
	p.liveMB = liveHeapMB()
	runtime.KeepAlive(cl)

	switch {
	case !ok:
		p.fail("not consistent by tick %d", deadline)
	case eng.Now() != at || !cl.Consistent():
		p.fail("Consistent() does not hold at first-consistent tick %d", at)
	}
	if _, looped := cl.AuditRoutes(); looped != 0 {
		p.fail("%d cached routes loop", looped)
	}
	c := raw.Counters()
	entries := 0
	for _, node := range cl.Nodes {
		entries += len(node.Cache().Destinations())
	}
	p.exact["consistency_time"] = float64(at)
	p.exact["messages"] = float64(c.Total())
	p.exact["sim.events"] = float64(eng.EventsExecuted())
	p.exact["phys.drops_loss"] = float64(c.Get("drop:loss"))
	p.exact["ssr.frames.notify"] = float64(c.Get(ssr.KindNotify))
	p.exact["ssr.frames.ack"] = float64(c.Get(ssr.KindAck))
	p.exact["ssr.frames.teardown"] = float64(c.Get(ssr.KindTeardown))
	p.exact["ssr.frames.discover"] = float64(c.Get(ssr.KindDiscover) + c.Get(ssr.KindDiscoverAck))
	p.exact["ssr.frames.keepalive"] = float64(c.Get(ssr.KindKeepalive) + c.Get(ssr.KindKeepAck))
	p.exact["cache.entries"] = float64(entries)
	if rn != nil {
		st := rn.Stats()
		p.exact["rel.sent"] = float64(st.Sent)
		p.exact["rel.retransmits"] = float64(st.Retransmits)
		p.exact["rel.duplicates"] = float64(st.Duplicates)
		p.exact["rel.acks_sent"] = float64(st.AcksSent)
		p.exact["rel.heartbeats"] = float64(st.Heartbeats)
		p.exact["rel.abandons"] = float64(st.Abandons)
	}
	if routes > 0 {
		cl.Stop()
		routePhase(&p, cl, routePairs(g.Nodes(), routes, seed), tr)
	}
	return p
}

// routePairs draws k distinct-endpoint src/dst pairs from the seed.
func routePairs(nodes []ids.ID, k int, seed int64) [][2]ids.ID {
	r := rand.New(rand.NewSource(seed))
	pairs := make([][2]ids.ID, 0, k)
	for len(pairs) < k {
		s, d := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
		if s != d {
			pairs = append(pairs, [2]ids.ID{s, d})
		}
	}
	return pairs
}

// routePhase routes every pair over the stopped cluster. Each route is one
// operation; it must be delivered on no fewer hops than the shortest path.
// The route means are over the delivered routes.
func routePhase(p *pass, cl *ssr.Cluster, pairs [][2]ids.ID, tr *tracer) {
	eng := cl.Net.Engine()
	var delivered, stretch, hops, segs, events float64
	for i, pr := range pairs {
		p.attempted++
		tr.beginRoute(i)
		e0 := eng.EventsExecuted()
		t0 := time.Now()
		r := cl.RouteData(pr[0], pr[1], routeDeadline)
		p.routeUS = append(p.routeUS, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.endRoute()
		p.routeHops = append(p.routeHops, r.Hops)
		if !r.Delivered || r.Shortest < 1 || r.Hops < r.Shortest {
			p.fail("route %v->%v: delivered=%v hops=%d shortest=%d", pr[0], pr[1], r.Delivered, r.Hops, r.Shortest)
			continue
		}
		delivered++
		stretch += r.Stretch()
		hops += float64(r.Hops)
		segs += float64(r.Segments)
		events += float64(eng.EventsExecuted() - e0)
	}
	delivered = max(delivered, 1)
	p.routeMeans = map[string]float64{
		"ssr.stretch_mean":        stretch / delivered,
		"ssr.route_hops_mean":     hops / delivered,
		"ssr.route_segments_mean": segs / delivered,
		"ssr.route_events_mean":   events / delivered,
	}
	if tr != nil {
		tr.timeBFS(cl.Net.Topology(), pairs)
	}
}
