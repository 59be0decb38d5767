// Command ssrsim runs the message-level protocol experiments:
//
//	ssrsim -mode compare -sizes 16,32,64      # E6: ISPRP+flood vs linearization messages
//	ssrsim -mode breakdown -n 32              # E6b: per-kind message mix
//	ssrsim -mode route -n 24 -pairs 200       # E7: routing success + stretch
//	ssrsim -mode occupancy -n 32              # E8b: cache interval occupancy
//	ssrsim -mode closure -n 24                # E10: discovery redundancy
//	ssrsim -mode vrr -n 24                    # E11: linearized VRR vs SSR
//	ssrsim -mode churn -n 32 -kill 4          # E9b: churn recovery
//	ssrsim -mode teardown -n 24               # A2: teardown ablation
//	ssrsim -mode mobility -n 24               # E12: random-waypoint mobility
//	ssrsim -mode loopy                        # E1b: scaled loopy states
//	ssrsim -mode overlay -n 32 -pairs 300     # E13: Chord overlay vs SSR underlay
//	ssrsim -mode dht -n 24                    # E14: DHT workload over SSR
//	ssrsim -mode boot -proto isprp -n 256     # E6c: one traced bootstrap run
//	ssrsim -mode scale -sizes 10000,100000    # E15: sharded executor scale bench
//	ssrsim -mode chaos -n 24                  # E16: chaos suite over all protocols
//	ssrsim -mode reliability -n 24            # E17: cold-start loss sweep, raw vs reliable
//
// -mode chaos compiles the committed fault-scenario suite (loss bursts,
// partition+heal, crash/recover churn, jitter reordering, frame
// corruption) once per seed and replays the byte-identical schedules over
// every registered bootstrap protocol with the online invariant checker
// attached, writing the machine-readable record to -out (default
// results/BENCH_chaos.json). -quick keeps one scenario per fault family
// for CI smoke runs.
//
// -mode reliability sweeps sustained frame loss (0/5/15/30%) active from
// t=0 over every protocol on both the raw network and the reliable
// sublayer (-transport reliable everywhere else), recording cold-start
// convergence and the message overhead reliability costs, to -out (default
// results/BENCH_reliability.json). -quick keeps the 15% reliable arm only.
//
// -mode scale times the sharded parallel round executor (-workers, -shards)
// against its own Workers=1 schedule on large regular graphs, checks the
// final virtual graphs are identical, and writes the machine-readable
// record to -out (default results/BENCH_scale.json). -quick shrinks the
// round caps for CI smoke runs.
//
// Observability: -trace FILE -trace-level {off|round|msg} writes a JSONL
// event trace, -listen ADDR serves live /metrics (OpenMetrics), /healthz
// and /probe while the run is in flight, -pprof ADDR serves net/http/pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/graph"
)

func main() {
	cli := exp.BindCLI(flag.CommandLine, exp.CLIOptions{
		Modes:        "compare | breakdown | route | occupancy | closure | vrr | churn | teardown | mobility | loopy | overlay | dht | boot | scale | chaos | reliability | profile",
		DefaultMode:  "compare",
		DefaultSizes: "16,24,32",
	})
	pairs := flag.Int("pairs", 200, "routed pairs for -mode route (0 = all)")
	kill := flag.Int("kill", 3, "nodes to fail for -mode churn")
	proto := flag.String("proto", "linearization", "protocol for -mode boot: "+strings.Join(exp.ProtocolNames(), " | "))
	probeEvery := flag.Int("probe-every", 16, "convergence-probe sampling interval in ticks for -mode boot")
	out := flag.String("out", "", "JSON output path for -mode scale / chaos / reliability / profile (default results/BENCH_<mode>.json)")
	quick := flag.Bool("quick", false, "shrink -mode scale/chaos/reliability/profile to a fast smoke run")
	profDir := flag.String("prof-dir", "results/prof", "pprof bundle directory for -mode profile (empty disables capture)")
	variant := flag.String("variant", "", "restrict -mode profile to one linearization variant (pure | memory | lsn; empty: all)")
	flag.Parse()

	closeTrace, err := cli.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssrsim:", err)
		os.Exit(2)
	}
	defer closeTrace()

	t := cli.Topology()
	emit := cli.Emit
	switch *cli.Mode {
	case "compare":
		sizes, err := cli.SizeList()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		emit(exp.MessageCost(sizes, t, *cli.Seeds))
	case "breakdown":
		emit(exp.MessageBreakdown(*cli.N, t, *cli.Seed))
	case "route":
		emit(exp.Routing(*cli.N, t, *pairs, *cli.Seed))
	case "occupancy":
		emit(exp.CacheOccupancy(*cli.N, t, *cli.Seed))
	case "closure":
		emit(exp.RingClosure(*cli.N, t, *cli.Seeds))
	case "vrr":
		emit(exp.VRRBootstrap(*cli.N, t, *cli.Seeds))
	case "churn":
		emit(exp.ChurnRecovery(*cli.N, t, *kill, *cli.Seed))
	case "teardown":
		emit(exp.TeardownAblation(*cli.N, t, *cli.Seeds))
	case "mobility":
		emit(exp.MobilityRecovery(*cli.N, 1500, 0.02, *cli.Seeds))
	case "loopy":
		emit(exp.ScaledLoopy([]int{15, 63, 255}, 2, *cli.Seed))
	case "overlay":
		emit(exp.OverlayVsUnderlay(*cli.N, t, *pairs, *cli.Seed))
	case "dht":
		emit(exp.DHTWorkload(*cli.N, 80, t, *cli.Seed))
	case "boot":
		rep, err := exp.Bootstrap(*proto, *cli.N, t, *cli.Seed, *probeEvery)
		if err != nil {
			closeTrace()
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		emit(rep)
	case "scale":
		// The scale bench has its own defaults: large regular graphs (ER
		// generation is O(n²)) unless -topo/-sizes were given explicitly.
		scaleTopo, scaleSizes := graph.TopoRegular, "10000,100000"
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "topo":
				scaleTopo = t
			case "sizes":
				scaleSizes = *cli.Sizes
			}
		})
		sizes, err := exp.ParseSizes(scaleSizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		outPath := *out
		if outPath == "" {
			outPath = "results/BENCH_scale.json"
		}
		rep, res := exp.ScaleBench(sizes, scaleTopo, *cli.Workers, *cli.Shards, *cli.Seed, *quick)
		if err := exp.WriteScaleJSON(outPath, res); err != nil {
			closeTrace()
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		emit(rep)
		fmt.Fprintf(os.Stderr, "ssrsim: wrote %s\n", outPath)
	case "chaos":
		outPath := *out
		if outPath == "" {
			outPath = "results/BENCH_chaos.json"
		}
		rep, res, err := exp.ChaosBench(*cli.N, t, *cli.Seed, *quick)
		if err != nil {
			closeTrace()
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		if err := exp.WriteChaosJSON(outPath, res); err != nil {
			closeTrace()
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		emit(rep)
		fmt.Fprintf(os.Stderr, "ssrsim: wrote %s\n", outPath)
		if !res.Criteria.Met {
			fmt.Fprintln(os.Stderr, "ssrsim: chaos criteria NOT met")
			os.Exit(1)
		}
	case "reliability":
		outPath := *out
		if outPath == "" {
			outPath = "results/BENCH_reliability.json"
		}
		rep, res, err := exp.ReliabilityBench(*cli.N, t, *cli.Seed, *quick)
		if err != nil {
			closeTrace()
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		if err := exp.WriteReliabilityJSON(outPath, res); err != nil {
			closeTrace()
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		emit(rep)
		fmt.Fprintf(os.Stderr, "ssrsim: wrote %s\n", outPath)
		if !res.Criteria.Met {
			fmt.Fprintln(os.Stderr, "ssrsim: reliability criteria NOT met")
			os.Exit(1)
		}
	case "profile":
		// Like -mode scale, the profiler has its own defaults: one large
		// regular graph unless -topo/-n were given explicitly.
		profTopo, profN := graph.TopoRegular, 10000
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "topo":
				profTopo = t
			case "n":
				profN = *cli.N
			}
		})
		outPath := *out
		if outPath == "" {
			outPath = "results/BENCH_profile.json"
			if *quick {
				outPath = "results/BENCH_profile_quick.json"
			}
		}
		rep, res, err := exp.ProfileBench(profN, profTopo, *cli.Workers, *cli.Shards, *cli.Seed, *quick, *profDir, *variant)
		if err != nil {
			closeTrace()
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		if err := exp.WriteProfileJSON(outPath, res); err != nil {
			closeTrace()
			fmt.Fprintln(os.Stderr, "ssrsim:", err)
			os.Exit(2)
		}
		emit(rep)
		fmt.Fprintf(os.Stderr, "ssrsim: wrote %s\n", outPath)
	default:
		fmt.Fprintf(os.Stderr, "ssrsim: unknown mode %q\n", *cli.Mode)
		os.Exit(2)
	}
}
