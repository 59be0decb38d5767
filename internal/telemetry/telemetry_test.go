package telemetry_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	s := telemetry.NewServer()
	tr := s.Tracer()
	tr.Emit(trace.Event{T: 1, Type: trace.EvMsgSend, Node: 3, Peer: 9, Kind: "ssr:notify"})
	tr.Emit(trace.Event{T: 1, Type: trace.EvMsgSend, Node: 3, Peer: 7, Kind: "ssr:notify"})
	tr.Emit(trace.Event{T: 1, Type: trace.EvMsgDrop, Node: 7, Peer: 3, Kind: "ssr:ack", Aux: "loss"})
	tr.Emit(trace.Event{T: 2, Type: trace.EvEdgeAdd, Node: 3, Peer: 9})
	tr.Emit(trace.Event{T: 2, Type: trace.EvRoundEnd, Value: 5})
	for kind, val := range map[string]float64{
		"distance": 4, "connected": 1, "multi-left": 2, "multi-right": 1, "edges": 9,
	} {
		tr.Emit(trace.Event{T: 7, Type: trace.EvProbe, Kind: kind, Value: val})
	}

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr

	body, ctype := get(t, base+"/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("metrics content-type = %q", ctype)
	}
	for _, want := range []string{
		`ssr_messages_sent_total{kind="ssr:notify"} 2`,
		`ssr_node_messages_sent_total{node="3"} 2`,
		`ssr_messages_dropped_total{reason="loss"} 1`,
		`ssr_rounds_total 1`,
		`ssr_round_edge_churn_count 1`,
		`ssr_probe{metric="distance"} 4`,
		"# TYPE ssr_messages_sent counter",
		"# EOF",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	body, ctype = get(t, base+"/probe")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("probe content-type = %q", ctype)
	}
	var probe struct {
		Present  bool `json:"present"`
		Distance int  `json:"distance"`
		Sample   struct {
			Round     int
			Connected bool
			Edges     int
		} `json:"sample"`
	}
	if err := json.Unmarshal([]byte(body), &probe); err != nil {
		t.Fatalf("probe json: %v in %s", err, body)
	}
	if !probe.Present || probe.Distance != 4 || probe.Sample.Round != 7 || !probe.Sample.Connected || probe.Sample.Edges != 9 {
		t.Errorf("probe = %+v", probe)
	}

	body, _ = get(t, base+"/healthz")
	var health struct {
		Status string `json:"status"`
		Events int64  `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz json: %v", err)
	}
	if health.Status != "ok" || health.Events != 10 {
		t.Errorf("healthz = %+v", health)
	}
}

func TestFoldProbeDecomposition(t *testing.T) {
	s := telemetry.NewServer()
	tr := s.Tracer()
	// A modern round carries the scalar plus its decomposition: the
	// reassembled sample must hold the true Missing/Surplus split, not the
	// parked scalar.
	tr.Emit(trace.Event{T: 5, Type: trace.EvProbe, Kind: "distance", Value: 15})
	tr.Emit(trace.Event{T: 5, Type: trace.EvProbe, Kind: "missing", Value: 2})
	tr.Emit(trace.Event{T: 5, Type: trace.EvProbe, Kind: "surplus", Value: 13})
	sample, ok := s.LastProbe()
	if !ok || sample.Round != 5 || sample.Missing != 2 || sample.Surplus != 13 || sample.Distance() != 15 {
		t.Errorf("sample = %+v ok=%v, want missing=2 surplus=13", sample, ok)
	}
	// An older-trace round with only the scalar falls back to parking it in
	// Surplus — and must not inherit the previous round's decomposition.
	tr.Emit(trace.Event{T: 6, Type: trace.EvProbe, Kind: "distance", Value: 3})
	sample, ok = s.LastProbe()
	if !ok || sample.Round != 6 || sample.Missing != 0 || sample.Surplus != 3 {
		t.Errorf("fallback sample = %+v ok=%v, want missing=0 surplus=3", sample, ok)
	}
}

func TestProbeEmptyBeforeSamples(t *testing.T) {
	s := telemetry.NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body, _ := get(t, "http://"+addr+"/probe")
	var probe struct {
		Present bool `json:"present"`
	}
	if err := json.Unmarshal([]byte(body), &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Present {
		t.Error("probe must report present=false before any sample")
	}
}

// TestCollectorConcurrentWithScrapes emits from parallel goroutines while
// scraping — the live-scrape-mid-bootstrap shape. Meaningful under -race.
func TestCollectorConcurrentWithScrapes(t *testing.T) {
	s := telemetry.NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := s.Tracer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(trace.Event{T: int64(i), Type: trace.EvMsgSend, Node: 1, Kind: "k"})
				tr.Emit(trace.Event{T: int64(i), Type: trace.EvProbe, Kind: "distance", Value: float64(i % 7)})
				tr.Emit(trace.Event{T: int64(i), Type: trace.EvRoundEnd})
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		get(t, "http://"+addr+"/metrics")
		get(t, "http://"+addr+"/probe")
	}
	wg.Wait()
	if sample, ok := s.LastProbe(); !ok || sample.Round < 0 {
		t.Errorf("last probe = %+v ok=%v", sample, ok)
	}
}

func TestCollectorFoldsShardAndGaugeEvents(t *testing.T) {
	s := telemetry.NewServer()
	tr := s.Tracer()
	tr.Emit(trace.Event{T: 0, Type: trace.EvShardRound, Kind: "0", Aux: "interior", Value: 12})
	tr.Emit(trace.Event{T: 1, Type: trace.EvShardRound, Kind: "0", Aux: "interior", Value: 3})
	tr.Emit(trace.Event{T: 1, Type: trace.EvShardRound, Kind: "1", Aux: "boundary", Value: 2})
	tr.Emit(trace.Event{T: 1, Type: trace.EvGauge, Kind: "parallel/interior-activations", Value: 15})
	tr.Emit(trace.Event{T: 2, Type: trace.EvGauge, Kind: "parallel/interior-activations", Value: 4})

	reg := s.Registry()
	if v := reg.Counter("ssr_shard_activations", "shard", "0", "phase", "interior").Value(); v != 15 {
		t.Errorf("shard 0 interior activations = %v, want 15", v)
	}
	if v := reg.Counter("ssr_shard_activations", "shard", "1", "phase", "boundary").Value(); v != 2 {
		t.Errorf("shard 1 boundary activations = %v, want 2", v)
	}
	// Gauges keep the latest reading, not a sum.
	if v := reg.Gauge("ssr_gauge", "metric", "parallel/interior-activations").Value(); v != 4 {
		t.Errorf("gauge = %v, want latest value 4", v)
	}
}

func TestCollectorFoldsSpanEvents(t *testing.T) {
	s := telemetry.NewServer()
	tr := s.Tracer()
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "phase/prepare", Value: 2e9})
	tr.Emit(trace.Event{T: 1, Type: trace.EvSpan, Kind: "phase/prepare", Value: 1e9})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "shard/execute", Aux: "3", Value: 5e8})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "snapshot/rebuild", Aux: "memory", Value: 1e9})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "imbalance", Value: 1.75})
	tr.Emit(trace.Event{T: 1, Type: trace.EvSpan, Kind: "imbalance", Value: 1.25})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "allocs", Value: 1024})
	tr.Emit(trace.Event{T: 1, Type: trace.EvSpan, Kind: "allocs", Value: 1024})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "mallocs", Value: 10})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "gc", Value: 2})
	tr.Emit(trace.Event{T: 5, Type: trace.EvSimFire, Value: 42})

	reg := s.Registry()
	if v := reg.Counter("ssr_phase_seconds", "phase", "prepare").Value(); v != 3 {
		t.Errorf("phase prepare seconds = %v, want 3", v)
	}
	if v := reg.Counter("ssr_shard_busy_seconds", "shard", "3", "phase", "execute").Value(); v != 0.5 {
		t.Errorf("shard busy seconds = %v, want 0.5", v)
	}
	if v := reg.Counter("ssr_phase_seconds", "phase", "snapshot/rebuild").Value(); v != 1 {
		t.Errorf("snapshot rebuild seconds = %v, want 1", v)
	}
	// Imbalance is a gauge: latest reading wins.
	if v := reg.Gauge("ssr_shard_imbalance").Value(); v != 1.25 {
		t.Errorf("imbalance = %v, want 1.25", v)
	}
	if v := reg.Counter("ssr_alloc_bytes").Value(); v != 2048 {
		t.Errorf("alloc bytes = %v, want 2048", v)
	}
	if v := reg.Counter("ssr_mallocs").Value(); v != 10 {
		t.Errorf("mallocs = %v, want 10", v)
	}
	if v := reg.Counter("ssr_gc_cycles").Value(); v != 2 {
		t.Errorf("gc cycles = %v, want 2", v)
	}
	if v := reg.Gauge("ssr_event_queue_depth").Value(); v != 42 {
		t.Errorf("queue depth = %v, want 42", v)
	}
}
