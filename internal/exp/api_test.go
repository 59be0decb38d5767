package exp

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestProtocolNames(t *testing.T) {
	want := []string{"flood", "isprp", "linearization", "vrr"}
	if got := ProtocolNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ProtocolNames() = %v, want %v", got, want)
	}
}

func TestNewBootProtocolUnknown(t *testing.T) {
	net := newNet(graph.TopoER, 10, 1)
	if _, err := NewBootProtocol("nope", net); err == nil {
		t.Fatal("unknown protocol should error")
	} else if !strings.Contains(err.Error(), "linearization") {
		t.Errorf("error should list the valid names: %v", err)
	}
}

// Every registered protocol must satisfy the full Protocol contract: build,
// probe, run to consistency on a small network, expose a virtual graph, stop.
func TestProtocolContract(t *testing.T) {
	for _, name := range ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			net := newNet(graph.TopoER, 12, 3)
			cl, err := NewBootProtocol(name, net)
			if err != nil {
				t.Fatal(err)
			}
			probe := &trace.Probe{}
			cl.AttachProbe(probe, sim.Time(64))
			at, ok := cl.RunUntilConsistent(12 * 4096)
			if !ok {
				t.Fatalf("%s did not converge by %d", name, 12*4096)
			}
			if at == 0 {
				t.Error("convergence time should be positive")
			}
			vg := cl.VirtualGraph()
			if vg == nil || vg.NumNodes() != 12 {
				t.Fatalf("virtual graph should cover all nodes, got %v", vg)
			}
			probe.Observe(probe.Len(), vg) // final sample, as Bootstrap does
			cl.Stop()
			if probe.Len() == 0 {
				t.Error("probe should hold at least the final sample")
			}
		})
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes(" 100, 200,300 ")
	if err != nil || !reflect.DeepEqual(got, []int{100, 200, 300}) {
		t.Fatalf("ParseSizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "10,-2", "10,,20"} {
		if _, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) should fail", bad)
		}
	}
}

func TestScaleBenchQuick(t *testing.T) {
	rep, res := ScaleBench([]int{600}, graph.TopoRegular, 2, 4, 5, true)
	if len(res.Runs) != 3 {
		t.Fatalf("want one run per variant, got %d", len(res.Runs))
	}
	for _, r := range res.Runs {
		if !r.EqualGraphs {
			t.Errorf("%s n=%d: parallel and sequential graphs differ", r.Variant, r.N)
		}
		if r.Shards != 4 || r.Workers != 2 {
			t.Errorf("%s: run shape = shards %d workers %d, want 4/2", r.Variant, r.Shards, r.Workers)
		}
		if r.SeqSeconds <= 0 || r.ParSeconds <= 0 {
			t.Errorf("%s: timings must be positive: %+v", r.Variant, r)
		}
	}
	if res.Criteria.TargetSpeedup != 2.0 || res.Criteria.AtN != 600 {
		t.Errorf("criteria = %+v", res.Criteria)
	}
	if !strings.Contains(rep.String(), "speedup") {
		t.Errorf("report table missing speedup column:\n%s", rep)
	}
}

func TestBindCLIDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindCLI(fs, CLIOptions{Modes: "m", DefaultMode: "boot", DefaultSizes: "10,20"})
	if err := fs.Parse([]string{"-workers", "3", "-shards", "8", "-sizes", "40,50"}); err != nil {
		t.Fatal(err)
	}
	if *c.Mode != "boot" || *c.N != 24 || *c.Workers != 3 || *c.Shards != 8 {
		t.Errorf("parsed: mode=%q n=%d workers=%d shards=%d", *c.Mode, *c.N, *c.Workers, *c.Shards)
	}
	if c.Topology() != graph.TopoER {
		t.Errorf("default topology = %q", c.Topology())
	}
	sizes, err := c.SizeList()
	if err != nil || !reflect.DeepEqual(sizes, []int{40, 50}) {
		t.Errorf("SizeList = %v, %v", sizes, err)
	}
}
