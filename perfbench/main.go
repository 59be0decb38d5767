// Command perfbench is the repository's benchmark. It runs one workload on
// the round engine (linearize over the sharded executor) or on the
// message-level plane (the sim event queue, the phys/rel transport and the
// ssr handlers), checks every output, and prints the end-to-end metrics of
// untraced runs (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": 3.1, "unit": "s"}, ...}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload lin-lsn --seed 1 --seconds 20 --trace 0
//
// README.md lists the workloads, the metrics and what each should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Seeds: the default one, and one held out that every workload must also
// pass its checks on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// metric is one reported number.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of untraced runs, printed on every workload.
// consistency_time is the simulated time to first global consistency in the
// engine's own step: synchronous rounds on the round engine, ticks on the
// message-level plane. messages is the protocol messages that took: edge
// notifications plus teardowns (added plus dropped edges) on the round
// engine, frames on the air on the message-level plane.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
	{"consistency_time", "steps"},
	{"messages", "count"},
}

// perLayer are the metrics of the traced run, printed on every workload; a
// layer the workload does not use reports 0.
var perLayer = []metric{
	{"graph.edge_adds", "count"},
	{"graph.edge_drops", "count"},
	{"graph.final_edges", "count"},
	{"graph.snapshot_s", "s"},
	{"graph.bfs_us_p50", "us"},
	{"linearize.round_ms_p50", "ms"},
	{"linearize.round_ms_max", "ms"},
	{"linearize.begin_s", "s"},
	{"linearize.end_s", "s"},
	{"linearize.peak_degree", "count"},
	{"sim.shard.prepare_s", "s"},
	{"sim.shard.execute_s", "s"},
	{"sim.shard.finish_s", "s"},
	{"sim.shard.seq_share", "ratio"},
	{"sim.shard.imbalance_mean", "ratio"},
	{"sim.shard.interior_activations", "count"},
	{"sim.shard.boundary_activations", "count"},
	{"sim.shard.wave_activations", "count"},
	{"sim.shard.speedup_vs_1worker", "x"},
	{"sim.events", "count"},
	{"sim.event_ns_mean", "ns"},
	{"sim.timer_and_queue_s", "s"},
	{"sim.queue_depth_p50", "count"},
	{"sim.queue_depth_max", "count"},
	{"phys.send_calls", "count"},
	{"phys.send_s", "s"},
	{"phys.drops_loss", "count"},
	{"rel.sent", "count"},
	{"rel.retransmits", "count"},
	{"rel.duplicates", "count"},
	{"rel.acks_sent", "count"},
	{"rel.heartbeats", "count"},
	{"rel.abandons", "count"},
	{"rel.useful_ratio", "ratio"},
	{"ssr.handle_calls", "count"},
	{"ssr.handle_self_s", "s"},
	{"ssr.frames.notify", "count"},
	{"ssr.frames.ack", "count"},
	{"ssr.frames.teardown", "count"},
	{"ssr.frames.discover", "count"},
	{"ssr.frames.keepalive", "count"},
	{"ssr.oracle_calls", "count"},
	{"ssr.oracle_s", "s"},
	{"ssr.route_us_p50", "us"},
	{"ssr.route_us_p99", "us"},
	{"ssr.stretch_mean", "ratio"},
	{"ssr.route_events_mean", "count"},
	{"ssr.route_hops_mean", "hops"},
	{"ssr.route_segments_mean", "count"},
	{"ssr.route_divergent", "count"},
	{"cache.entries", "count"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead", "x"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: lin-lsn, lin-memory, ssr-boot-route or ssr-rel-loss")
	seed := fl.Int64("seed", defaultSeed, "seed the topology and route pairs are generated from")
	seconds := fl.Float64("seconds", 10, "run length: sets how many instances of the seed a run measures")
	traced := fl.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) || !(*seconds >= 0) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of lin-lsn, lin-memory, ssr-boot-route, ssr-rel-loss), --seconds >= 0 and --trace 0|1\n")
		return 2
	}
	// One process on at most two CPUs: the sharded executor runs two
	// workers, and every message-level run is single-threaded.
	runtime.GOMAXPROCS(min(linWorkers, runtime.NumCPU()))
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	spans := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, *seed))
	if bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, spans, stdout, stderr) {
		return 0
	}
	return 1
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload and prints its report; it reports whether every
// check passed.
func bench(w workload, seed int64, d time.Duration, traced bool, spansPath string, stdout, stderr io.Writer) bool {
	env := stamp()
	fmt.Fprintf(stdout, "perfbench workload=%s n=%d seed=%d trace=%v\n", w.name, w.n, seed, traced)
	fmt.Fprintf(stdout, "env num_cpu=%d gomaxprocs=%d go=%s commit=%s\n", env.NumCPU, env.GOMAXPROCS, env.Go, env.Commit)
	var res result
	var lines []string
	if traced {
		res, lines = tracedRun(w, seed, d, env, spansPath, stderr)
	} else {
		res, lines = untracedRuns(w, seed, d)
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding the result: %v\n", err)
		return false
	}
	fmt.Fprintln(stdout, string(b))
	return res.Correct
}

// guard records a failure for every exact count of p that differs from
// ref: neither the wrappers nor the worker count may perturb the simulation.
func guard(res *result, lines *[]string, what string, ref, p pass) {
	keys := make([]string, 0, len(ref.exact))
	for k := range ref.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v, ok := p.exact[k]; !ok || v != ref.exact[k] {
			res.Failed++
			*lines = append(*lines, fmt.Sprintf("FAIL determinism: %s: %s = %v, untraced pass %v", what, k, v, ref.exact[k]))
		}
	}
}

// divergent counts the routes of p whose hop count differs from ref's.
func divergent(ref, p pass) int {
	n := 0
	for i, h := range p.routeHops {
		if i >= len(ref.routeHops) || ref.routeHops[i] != h {
			n++
		}
	}
	return n
}

// exactDigest fingerprints the exact counts of every pass, so that two runs
// of one seed can be compared at a glance.
func exactDigest(passes []pass) string {
	h := sha256.New()
	for _, p := range passes {
		keys := make([]string, 0, len(p.exact))
		for k := range p.exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%v\n", k, p.exact[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func tally(res *result, lines *[]string, what string, p pass) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	for _, msg := range p.problems {
		*lines = append(*lines, fmt.Sprintf("FAIL %s: %s", what, msg))
	}
}

// untracedRuns makes one untraced pass on each instance of the seed. The
// metrics are means over the instances, except setup_s, the median.
func untracedRuns(w workload, seed int64, d time.Duration) (result, []string) {
	res := result{Metrics: map[string]valueOut{}}
	var lines []string
	k := w.instances(d)
	routes := (w.routes + k - 1) / k
	passes := make([]pass, k)
	var routeUS []float64
	start := time.Now()
	for i := range passes {
		p := runPass(w, instanceSeed(seed, i, k), linWorkers, routes, nil)
		tally(&res, &lines, fmt.Sprintf("instance %d", i), p)
		lines = append(lines, fmt.Sprintf("instance %d seed=%d setup_s=%.6g wall_s=%.6g cpu_s=%.6g steal_s=%.4g alloc_mb=%.6g live_heap_mb=%.6g consistency_time=%v messages=%v",
			i, instanceSeed(seed, i, k), p.setupS, p.wallS, p.cpuS, p.stealS, p.allocMB, p.liveMB, p.exact["consistency_time"], p.exact["messages"]))
		passes[i] = p
		routeUS = append(routeUS, p.routeUS...)
	}
	col := func(f func(p pass) float64) []float64 {
		xs := make([]float64, k)
		for i, p := range passes {
			xs[i] = f(p)
		}
		return xs
	}
	vals := map[string]float64{
		"setup_s":          median(col(func(p pass) float64 { return p.setupS })),
		"wall_s":           mean(col(func(p pass) float64 { return p.wallS })),
		"alloc_mb":         mean(col(func(p pass) float64 { return p.allocMB })),
		"live_heap_mb":     mean(col(func(p pass) float64 { return p.liveMB })),
		"consistency_time": mean(col(func(p pass) float64 { return p.exact["consistency_time"] })),
		"messages":         mean(col(func(p pass) float64 { return p.exact["messages"] })),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = valueOut{vals[m.name], m.unit}
	}

	// The same numbers under the names of each plane, with the route
	// latencies, stretch and failed share.
	lines = append(lines, fmt.Sprintf("instances=%d routes_per_instance=%d measured_s=%.3f exact_digest=%s", k, routes, time.Since(start).Seconds(), exactDigest(passes)))
	show := func(name string, v float64, unit string) {
		lines = append(lines, fmt.Sprintf("  %-22s %14.6g %s", name, v, unit))
	}
	for _, m := range endToEnd[:4] {
		show(m.name, vals[m.name], m.unit)
	}
	if w.ssr {
		show("first_consistent_tick", vals["consistency_time"], "tick")
		show("frames", vals["messages"], "count")
	} else {
		show("rounds", vals["consistency_time"], "count")
		show("edge_messages", vals["messages"], "count")
	}
	if w.routes > 0 {
		show("route_us_p50", median(routeUS), "us")
		show("route_us_p99", percentile(routeUS, 0.99), "us")
		show("stretch_mean", mean(col(func(p pass) float64 { return p.routeMeans["ssr.stretch_mean"] })), "ratio")
	}
	show("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, lines
}

// tracedRun makes, on the first instance of a run of d, one untraced pass,
// one traced pass and, on the round engine, one untraced pass at one worker.
// The per-layer counts come from the passes, the timings from the traced
// pass's spans and hooks.
func tracedRun(w workload, seed int64, d time.Duration, env envStamp, spansPath string, stderr io.Writer) (result, []string) {
	res := result{Metrics: map[string]valueOut{}}
	k := w.instances(d)
	routes := (w.routes + k - 1) / k
	seed = instanceSeed(seed, 0, k)
	var lines []string
	base := runPass(w, seed, linWorkers, routes, nil)
	tally(&res, &lines, "untraced pass", base)
	tr := newTracer()
	tp := runPass(w, seed, linWorkers, routes, tr)
	tally(&res, &lines, "traced pass", tp)
	guard(&res, &lines, "traced pass", base, tp)

	vals := tr.layerMetrics()
	for name, v := range tp.exact {
		vals[name] = v
	}
	for name, v := range tp.routeMeans {
		vals[name] = v
	}
	vals["ssr.route_divergent"] = float64(divergent(base, tp))
	vals["runtime.mallocs"] = base.mallocs
	vals["runtime.gc_cycles"] = base.gcCycles
	vals["runtime.gc_pause_ms"] = base.gcPauseMs
	vals["bench.trace_overhead"] = tp.wallS / base.wallS
	if len(base.routeUS) > 0 {
		vals["ssr.route_us_p50"] = median(base.routeUS)
		vals["ssr.route_us_p99"] = percentile(base.routeUS, 0.99)
	}
	if w.loss > 0 {
		vals["rel.useful_ratio"] = vals["rel.sent"] / vals["messages"]
	}
	if !w.ssr {
		one := runPass(w, seed, 1, routes, nil)
		tally(&res, &lines, "one-worker pass", one)
		guard(&res, &lines, "one-worker pass", base, one)
		vals["sim.shard.speedup_vs_1worker"] = one.wallS / base.wallS
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = valueOut{vals[m.name], m.unit}
	}
	lines = append(lines, fmt.Sprintf("untraced wall_s=%.6g traced wall_s=%.6g spans=%d (%s)", base.wallS, tp.wallS, len(tr.spans), spansPath))
	if err := tr.writeSpans(spansPath, env); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
	}
	return res, lines
}

// envStamp identifies the machine and the code a result was measured on;
// speedups hold only next to it.
type envStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func stamp() envStamp {
	return envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

// commit is the git revision the binary was built from or, outside a git
// checkout, a digest of the Go sources and module files under the working
// directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
