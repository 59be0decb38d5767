// Package telemetry serves live observability for a running simulation:
// an HTTP endpoint exposing the metrics registry in OpenMetrics text
// format (/metrics), a liveness check (/healthz), and the latest
// convergence-probe sample as JSON (/probe). The cmd/ tools wire it behind
// a -listen flag, so a long-running MANET-churn bootstrap can be scraped
// by Prometheus or curled mid-run.
//
// The server owns a collector — a trace.Tracer that folds every event into
// a metrics.Registry, a trace.StatsSink and the latest probe sample. When
// -listen is unset nothing is constructed and the simulation keeps its
// nil-tracer fast path.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Server is the live telemetry endpoint. Create with NewServer, attach
// Tracer() to the simulation, then Start.
type Server struct {
	reg   *metrics.Registry
	stats *trace.StatsSink

	mu         sync.Mutex
	last       trace.ProbeSample
	haveProbe  bool
	decomposed bool // this round carried missing/surplus events
	probeAt    time.Time
	churn      float64 // edge adds+delegates since the last round end

	started time.Time
	events  *metrics.Counter

	httpSrv *http.Server
	lis     net.Listener
}

// NewServer builds a server with a fresh registry and stats sink.
func NewServer() *Server {
	reg := metrics.NewRegistry()
	reg.Describe("ssr_trace_events", "trace events observed, by event type")
	reg.Describe("ssr_messages_sent", "physical frames put on the air, by kind")
	reg.Describe("ssr_messages_dropped", "physical frames lost, by reason")
	reg.Describe("ssr_node_messages_sent", "physical frames put on the air, by sending node")
	reg.Describe("ssr_rounds", "synchronous rounds completed")
	reg.Describe("ssr_round_edge_churn", "virtual-edge adds+delegations per round")
	reg.Describe("ssr_probe", "latest convergence-probe reading, by metric")
	reg.Describe("ssr_gauge", "latest generic gauge reading, by metric")
	reg.Describe("ssr_shard_activations", "sharded-executor activations, by shard and phase")
	reg.Describe("ssr_invariant_checks", "chaos-harness invariant checks, by invariant")
	reg.Describe("ssr_invariant_violations", "chaos-harness invariant violations, by invariant")
	reg.Describe("ssr_retransmits", "reliable-sublayer retransmissions, by frame kind")
	reg.Describe("ssr_rto_ticks", "latest adaptive RTO reading, by sender node")
	reg.Describe("ssr_lease_verdicts", "failure-detector verdicts, by direction")
	reg.Describe("ssr_phase_seconds", "profiler wall time inside executor phases, by phase")
	reg.Describe("ssr_shard_busy_seconds", "profiler per-shard busy time in the parallel phases, by shard and phase")
	reg.Describe("ssr_shard_imbalance", "latest per-round load-imbalance ratio (max/mean shard busy)")
	reg.Describe("ssr_alloc_bytes", "profiler heap bytes allocated during rounds")
	reg.Describe("ssr_mallocs", "profiler heap objects allocated during rounds")
	reg.Describe("ssr_gc_cycles", "profiler GC cycles completed during rounds")
	reg.Describe("ssr_event_queue_depth", "latest engine event-queue depth after a firing")
	return &Server{
		reg:     reg,
		stats:   trace.NewStatsSink(),
		started: time.Now(),
		events:  reg.Counter("ssr_trace_events_all"),
	}
}

// Registry exposes the server's metrics registry so harnesses can add
// their own series next to the trace-fed ones.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Stats exposes the server's aggregating sink.
func (s *Server) Stats() *trace.StatsSink { return s.stats }

// collector folds trace events into the registry, the stats sink, and the
// latest-probe state.
type collector struct {
	s *Server
}

// Emit implements trace.Tracer.
func (c collector) Emit(e trace.Event) {
	s := c.s
	s.stats.Emit(e)
	s.events.Inc()
	s.reg.Counter("ssr_trace_events", "ev", e.Type.String()).Inc()
	switch e.Type {
	case trace.EvMsgSend:
		s.reg.Counter("ssr_messages_sent", "kind", e.Kind).Inc()
		s.reg.Counter("ssr_node_messages_sent", "node", e.Node.String()).Inc()
	case trace.EvMsgDrop:
		s.reg.Counter("ssr_messages_dropped", "reason", e.Aux).Inc()
	case trace.EvEdgeAdd, trace.EvEdgeDelegate:
		s.mu.Lock()
		s.churn++
		s.mu.Unlock()
	case trace.EvRoundEnd:
		s.reg.Counter("ssr_rounds").Inc()
		s.mu.Lock()
		churn := s.churn
		s.churn = 0
		s.mu.Unlock()
		s.reg.Histogram("ssr_round_edge_churn", metrics.ExponentialBuckets(1, 2, 12)).Observe(churn)
	case trace.EvProbe:
		s.reg.Gauge("ssr_probe", "metric", e.Kind).Set(e.Value)
		s.foldProbe(e)
	case trace.EvGauge:
		s.reg.Gauge("ssr_gauge", "metric", e.Kind).Set(e.Value)
	case trace.EvShardRound:
		s.reg.Counter("ssr_shard_activations", "shard", e.Kind, "phase", e.Aux).Add(e.Value)
	case trace.EvInvariant:
		s.reg.Counter("ssr_invariant_checks", "invariant", e.Kind).Inc()
		if e.Value != 0 {
			s.reg.Counter("ssr_invariant_violations", "invariant", e.Kind).Inc()
		}
	case trace.EvRetransmit:
		s.reg.Counter("ssr_retransmits", "kind", e.Kind).Inc()
	case trace.EvRtoUpdate:
		s.reg.Gauge("ssr_rto_ticks", "node", e.Node.String()).Set(e.Value)
	case trace.EvLeaseExpire:
		s.reg.Counter("ssr_lease_verdicts", "verdict", e.Aux).Inc()
	case trace.EvSimFire:
		s.reg.Gauge("ssr_event_queue_depth").Set(e.Value)
	case trace.EvSpan:
		s.foldSpan(e)
	}
}

// foldSpan folds one profiler span into the perf series. Timing spans
// arrive in nanoseconds and are exported in seconds, matching the
// OpenMetrics unit conventions.
func (s *Server) foldSpan(e trace.Event) {
	const nsPerSec = 1e9
	switch {
	case strings.HasPrefix(e.Kind, "phase/"):
		s.reg.Counter("ssr_phase_seconds", "phase", strings.TrimPrefix(e.Kind, "phase/")).Add(e.Value / nsPerSec)
	case strings.HasPrefix(e.Kind, "shard/"):
		s.reg.Counter("ssr_shard_busy_seconds", "shard", e.Aux, "phase", strings.TrimPrefix(e.Kind, "shard/")).Add(e.Value / nsPerSec)
	case e.Kind == "imbalance":
		s.reg.Gauge("ssr_shard_imbalance").Set(e.Value)
	case e.Kind == "allocs":
		s.reg.Counter("ssr_alloc_bytes").Add(e.Value)
	case e.Kind == "mallocs":
		s.reg.Counter("ssr_mallocs").Add(e.Value)
	case e.Kind == "gc":
		s.reg.Counter("ssr_gc_cycles").Add(e.Value)
	default:
		// Ad-hoc spans (e.g. snapshot/rebuild) fold into the phase series
		// under their full name, so nothing measured is dropped.
		s.reg.Counter("ssr_phase_seconds", "phase", e.Kind).Add(e.Value / nsPerSec)
	}
}

// foldProbe reassembles ProbeSample fields from the per-metric EvProbe
// events trace.Probe emits (all sharing one T = round index).
func (s *Server) foldProbe(e trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	round := int(e.T)
	if !s.haveProbe || round != s.last.Round {
		s.last = trace.ProbeSample{Round: round}
		s.haveProbe = true
		s.decomposed = false
	}
	switch e.Kind {
	case "distance":
		// The scalar is Missing+Surplus; when this round also carries the
		// decomposition events those take over, otherwise park it in
		// Surplus with Missing zero (older traces).
		if !s.decomposed {
			s.last.Missing = 0
			s.last.Surplus = int(e.Value)
		}
	case "missing":
		if !s.decomposed {
			s.last.Surplus = 0
			s.decomposed = true
		}
		s.last.Missing = int(e.Value)
	case "surplus":
		if !s.decomposed {
			s.last.Missing = 0
			s.decomposed = true
		}
		s.last.Surplus = int(e.Value)
	case "connected":
		s.last.Connected = e.Value != 0
	case "multi-left":
		s.last.MultiLeft = int(e.Value)
	case "multi-right":
		s.last.MultiRight = int(e.Value)
	case "edges":
		s.last.Edges = int(e.Value)
	}
	s.probeAt = time.Now()
}

// Tracer returns the event collector feeding this server. Tee it with the
// run's other sinks.
func (s *Server) Tracer() trace.Tracer { return collector{s} }

// LastProbe returns the most recent reassembled probe sample.
func (s *Server) LastProbe() (trace.ProbeSample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.haveProbe
}

// Handler returns the telemetry mux, also usable under a larger server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/probe", s.handleProbe)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteOpenMetrics(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"uptime_s":  time.Since(s.started).Seconds(),
		"events":    int64(s.events.Value()),
		"msgs_sent": s.stats.TotalSent(),
	})
}

// probeResponse is the /probe JSON shape: the latest sample plus the
// derived scalar the convergence claim is about.
type probeResponse struct {
	Present    bool              `json:"present"`
	Sample     trace.ProbeSample `json:"sample,omitempty"`
	Distance   int               `json:"distance"`
	AgeSeconds float64           `json:"age_s"`
}

func (s *Server) handleProbe(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := probeResponse{Present: s.haveProbe, Sample: s.last, Distance: s.last.Distance()}
	if s.haveProbe {
		resp.AgeSeconds = time.Since(s.probeAt).Seconds()
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// Start binds addr (":0" picks a free port) and serves in a background
// goroutine. It returns the bound address, so callers can print a curlable
// URL even for ":0".
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: %w", err)
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go func() {
		if err := s.httpSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
			// The listener died under us; nothing to do mid-simulation.
			_ = err
		}
	}()
	return lis.Addr().String(), nil
}

// Close shuts the HTTP server down, waiting briefly for in-flight scrapes.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.httpSrv.Shutdown(ctx)
}
