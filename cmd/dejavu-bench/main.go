// Command dejavu-bench runs the hot-path benchmarks programmatically
// and records the results as JSON — the committed BENCH_fleet.json
// (run phase) and BENCH_learn.json (learning phase) are the
// performance baselines CI regresses against.
//
//	go run ./cmd/dejavu-bench -out BENCH_fleet.json          # refresh run-phase baseline
//	go run ./cmd/dejavu-bench -check BENCH_fleet.json        # fail on regression
//	go run ./cmd/dejavu-bench -learn-out BENCH_learn.json    # refresh learn-phase baseline
//	go run ./cmd/dejavu-bench -learn-check BENCH_learn.json  # fail on regression
//	go run ./cmd/dejavu-bench -serve-out BENCH_serve.json    # refresh decision-service baseline
//	go run ./cmd/dejavu-bench -serve-check BENCH_serve.json  # fail on regression
//	go run ./cmd/dejavu-bench -scenarios-out BENCH_scenarios.json    # refresh scenario claims
//	go run ./cmd/dejavu-bench -scenarios-check BENCH_scenarios.json  # fail on claim drift
//
// With -check, the run fails (exit 1) when fleet steps/s drops more
// than -tolerance (default 20%) below the baseline, when a tracked
// benchmark's allocs/op exceeds its baseline, or when a -scale-vms
// row's steps/s-per-core falls below the matching baseline row's by
// more than -tolerance (rows absent from the baseline are skipped, so
// CI can run a subset of the recorded sizes). With
// -learn-check, it fails when KMeansAuto wall time regresses more
// than -tolerance against the baseline, when the fast path's speedup
// over the preserved pre-optimization reference drops below
// -learn-speedup-floor (default 5×), or when the fast and reference
// paths choose a different number of clusters at the pinned seed.
// See docs/BENCHMARKS.md for the methodology.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/proxy"
	"repro/internal/queueing"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Bench is one recorded benchmark.
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// FleetBench is the headline fleet control-plane measurement.
type FleetBench struct {
	VMs         int     `json:"vms"`
	StepsPerSec float64 `json:"steps_per_sec"`
	RepoHitPct  float64 `json:"repo_hit_pct"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// LearnPhase and StepPhase digest the last run's per-template
	// learning and per-VM simulation durations (fleet.Result timing
	// histograms).
	LearnPhase obs.Summary `json:"learn_phase"`
	StepPhase  obs.Summary `json:"step_phase"`
}

// FleetScaleBench is one fleet scale-out row: a single timed run at
// 10k–100k VMs on all cores with step records discarded (the vms=100
// headline row keeps testing.Benchmark and full recording). The gated
// quantity is StepsPerSecPerCore — throughput normalized by the cores
// the run actually had — so the committed baseline transfers between
// runner classes with different core counts.
type FleetScaleBench struct {
	VMs                int     `json:"vms"`
	Workers            int     `json:"workers"`
	Cores              int     `json:"cores"`
	Seconds            float64 `json:"seconds"`
	StepsPerSec        float64 `json:"steps_per_sec"`
	StepsPerSecPerCore float64 `json:"steps_per_sec_per_core"`
	RepoHitPct         float64 `json:"repo_hit_pct"`
	DiscardRecords     bool    `json:"discard_records"`
}

// Report is the BENCH_fleet.json schema.
type Report struct {
	GoVersion           string            `json:"go_version"`
	GOMAXPROCS          int               `json:"gomaxprocs"`
	Fleet               FleetBench        `json:"fleet"`
	FleetScale          []FleetScaleBench `json:"fleet_scale,omitempty"`
	SignatureCollection Bench             `json:"signature_collection"`
	ServicePerf         Bench             `json:"service_perf"`
	MVASolve            Bench             `json:"mva_solve"`
	MVAMemoized         Bench             `json:"mva_memoized"`
}

// LearnBench is the learning-phase measurement: one KMeansAuto sweep
// over a fleet-scale synthetic signature set at a pinned seed, timed
// on the fast engine and on the preserved pre-optimization reference
// path (ml.KMeansAutoReference).
type LearnBench struct {
	N               int     `json:"n"`
	Dims            int     `json:"dims"`
	MinK            int     `json:"min_k"`
	MaxK            int     `json:"max_k"`
	Restarts        int     `json:"restarts"`
	Seed            int64   `json:"seed"`
	FastMs          float64 `json:"fast_ms"`
	BaselineMs      float64 `json:"baseline_ms"`
	Speedup         float64 `json:"speedup"`
	ChosenK         int     `json:"chosen_k"`
	BaselineChosenK int     `json:"baseline_chosen_k"`
}

// LearnReport is the BENCH_learn.json schema.
type LearnReport struct {
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	KMeansAuto LearnBench `json:"kmeans_auto"`
}

// ServeBench is one decision-service measurement: concurrent clients
// hammering batched lookups at a dejavud server over loopback —
// over HTTP, or the raw-TCP decision plane.
type ServeBench struct {
	Encoding        string  `json:"encoding"`
	Transport       string  `json:"transport"`
	Clients         int     `json:"clients"`
	Batch           int     `json:"batch"`
	Requests        int     `json:"requests"`
	Pipeline        int     `json:"pipeline,omitempty"`
	Replicas        int     `json:"replicas,omitempty"`
	Cores           int     `json:"cores"`
	Seconds         float64 `json:"seconds"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	HitPct          float64 `json:"hit_pct"`
}

// ServeReport is the BENCH_serve.json schema: the same loopback load
// measured once over HTTP, once over the raw-TCP stream transport at
// one core, and once over TCP with all cores (sharded accept loops,
// GOMAXPROCS = NumCPU). The TCP/binary-HTTP decisions-per-sec ratio
// is CI-gated (see serveCheck).
type ServeReport struct {
	GoVersion         string     `json:"go_version"`
	GOMAXPROCS        int        `json:"gomaxprocs"`
	ServeBin          ServeBench `json:"serve_binary"`
	ServeTCP          ServeBench `json:"serve_tcp"`
	ServeTCPMulticore ServeBench `json:"serve_tcp_multicore"`
	ServeReplicated   ServeBench `json:"serve_replicated"`
}

// benchServe learns a small repository, serves it through the real
// internal/server stack on loopback, and drives `clients` concurrent
// connections issuing `requests` batched lookups through the
// internal/client library — once over HTTP, once over the raw-TCP
// stream transport, both pinned to one core so the committed
// baseline is scheduling-stable; then once more over
// TCP with GOMAXPROCS = NumCPU and one sharded accept loop per core.
// The decision path's 0 allocs/op is pinned separately by the server
// and client zero-alloc tests; this measures end-to-end serving
// throughput and tail latency, and the HTTP framing tax the stream
// transport deletes.
func benchServe(rep *ServeReport, clients, batch, requests int) error {
	svc := services.NewCassandra()
	learnRng := rand.New(rand.NewSource(17))
	prof, err := core.NewProfiler(svc, learnRng)
	if err != nil {
		return err
	}
	tuner, err := fleet.DefaultTuner(svc)
	if err != nil {
		return err
	}
	var workloads []services.Workload
	for c := 100.0; c <= 460; c += 30 {
		workloads = append(workloads, services.Workload{Clients: c, Mix: svc.DefaultMix()})
	}
	repo, _, err := core.Learn(core.LearnConfig{
		Profiler:  prof,
		Tuner:     tuner,
		Workloads: workloads,
		Rng:       learnRng,
	})
	if err != nil {
		return err
	}
	handle, err := core.NewHandle(repo)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Handle: handle})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	// Raw-TCP planes on the same server: one accept loop for the
	// single-core rows, one accept loop per core for the multi-core
	// row.
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tcpOne := server.NewTCP(srv, server.TCPConfig{Accepters: 1})
	go func() { _ = tcpOne.Serve(tcpLn) }()
	defer tcpOne.Close()
	cores := runtime.NumCPU()
	tcpMultiLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tcpMulti := server.NewTCP(srv, server.TCPConfig{Accepters: cores})
	go func() { _ = tcpMulti.Serve(tcpMultiLn) }()
	defer tcpMulti.Close()

	// One foreseen signature, batched: the steady-state hit path.
	sig, err := prof.Profile(services.Workload{Clients: 300, Mix: svc.DefaultMix()}, repo.EventsRef())
	if err != nil {
		return err
	}
	addr := ln.Addr().String()

	// Single-core rows: client, server, and codec all share one core,
	// so the committed numbers compare across machines with different
	// core counts.
	prev := runtime.GOMAXPROCS(1)
	if rep.ServeBin, err = benchServeEncoding(addr, sig.Values, clients, batch, requests); err != nil {
		runtime.GOMAXPROCS(prev)
		return err
	}
	if rep.ServeTCP, err = benchServeTCP(tcpLn.Addr().String(), sig.Values, clients, batch, requests); err != nil {
		runtime.GOMAXPROCS(prev)
		return err
	}
	// Multi-core rows: all cores — sharded accept loops, then the
	// replicated decision tier.
	runtime.GOMAXPROCS(cores)
	rep.ServeTCPMulticore, err = benchServeTCP(tcpMultiLn.Addr().String(), sig.Values, clients, batch, requests)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		return err
	}
	rep.ServeReplicated, err = benchServeReplicated(repo, sig.Values, clients, batch, requests)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}

	hitPct := 100 * repo.HitRate()
	rep.ServeBin.HitPct = hitPct
	rep.ServeTCP.HitPct = hitPct
	rep.ServeTCPMulticore.HitPct = hitPct
	rep.ServeReplicated.HitPct = hitPct
	return nil
}

// serveReplicas is the tier size the serve_replicated row measures:
// the decision front load-balancing over this many healthy dejavud
// replicas on loopback, decisions riding each replica's raw-TCP
// plane. The row prices the front's relay hop and the registry's
// routing against the direct rows above it.
const serveReplicas = 3

// benchServeReplicated stands up a replicated tier — serveReplicas
// empty dejavud instances, a registry that installs the learned
// repository on all of them with publish-then-flip consistency, and a
// decision front over the registry — then drives the same batched
// binary-HTTP load at the front that benchServeEncoding drives at a
// bare daemon.
func benchServeReplicated(repo *core.Repository, vals []float64, clients, batch, requests int) (ServeBench, error) {
	sb := ServeBench{Encoding: "binary", Transport: "replicated", Clients: clients, Batch: batch,
		Requests: requests, Replicas: serveReplicas, Cores: runtime.GOMAXPROCS(0)}

	specs := make([]replica.Spec, 0, serveReplicas)
	for i := 0; i < serveReplicas; i++ {
		srv, err := server.New(server.Config{})
		if err != nil {
			return sb, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return sb, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return sb, err
		}
		tcpSrv := server.NewTCP(srv, server.TCPConfig{})
		go func() { _ = tcpSrv.Serve(tcpLn) }()
		defer tcpSrv.Close()
		specs = append(specs, replica.Spec{
			Name:    fmt.Sprintf("bench-r%d", i),
			Addr:    ln.Addr().String(),
			TCPAddr: tcpLn.Addr().String(),
		})
	}

	reg, err := replica.New(replica.Config{Replicas: specs})
	if err != nil {
		return sb, err
	}
	defer reg.Close()
	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		return sb, err
	}
	if _, err := reg.InstallSerialized(server.DefaultTemplate, buf.Bytes()); err != nil {
		return sb, err
	}

	front, err := proxy.NewDecisionFront(proxy.DecisionFrontConfig{Replicas: reg})
	if err != nil {
		return sb, err
	}
	defer front.Close()
	frontLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sb, err
	}
	fhs := &http.Server{Handler: front.Handler()}
	go func() { _ = fhs.Serve(frontLn) }()
	defer fhs.Close()

	cl, err := client.New(client.Config{Addr: frontLn.Addr().String(), MaxIdleConns: clients})
	if err != nil {
		return sb, err
	}
	return driveServeLoad(cl, sb, vals)
}

// benchServeEncoding drives the binary-over-HTTP load: `clients`
// workers over one pooled client, best of three passes (loopback
// throughput on a small shared runner is noisy, and the gate compares
// against the best the machine can do).
func benchServeEncoding(addr string, vals []float64, clients, batch, requests int) (ServeBench, error) {
	sb := ServeBench{Encoding: "binary", Transport: "http", Clients: clients, Batch: batch,
		Requests: requests, Cores: runtime.GOMAXPROCS(0)}
	cl, err := client.New(client.Config{Addr: addr, MaxIdleConns: clients})
	if err != nil {
		return sb, err
	}
	return driveServeLoad(cl, sb, vals)
}

// tcpPipelineDepth is the per-connection request window the TCP axis
// keeps in flight. Pipelining is the stream protocol's own feature —
// request ids exist so a caller never waits a full round trip per
// batch — and it is what separates the transport from HTTP/1.1, which
// serializes request/response pairs per connection. The HTTP rows
// therefore measure sync round trips; this row measures the
// transport's sustained form.
const tcpPipelineDepth = 8

// benchServeTCP drives the same batched-lookup load over the raw-TCP
// stream transport: binary payloads framed in stream envelopes on
// persistent connections, `clients` connections each keeping
// tcpPipelineDepth requests in flight. Latency is measured per
// envelope from write to its response, so the quantiles include the
// queueing a full window implies.
func benchServeTCP(tcpAddr string, vals []float64, clients, batch, requests int) (ServeBench, error) {
	sb := ServeBench{Encoding: "binary", Transport: "tcp", Clients: clients, Batch: batch,
		Requests: requests, Pipeline: tcpPipelineDepth, Cores: runtime.GOMAXPROCS(0)}

	var req wire.Request
	req.Bucket = 0
	for r := 0; r < batch; r++ {
		req.AppendRow(vals)
	}
	payload, err := req.AppendBinary(nil)
	if err != nil {
		return sb, err
	}

	conns := make([]net.Conn, clients)
	streams := make([]*wire.Stream, clients)
	defer func() {
		for _, nc := range conns {
			if nc != nil {
				nc.Close()
			}
		}
	}()
	for i := range conns {
		nc, err := net.DialTimeout("tcp", tcpAddr, 5*time.Second)
		if err != nil {
			return sb, err
		}
		conns[i] = nc
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		st := wire.NewStream(nc)
		if err := st.WriteClientHello(wire.EncodingBinary); err != nil {
			return sb, err
		}
		if _, err := st.ReadServerHello(); err != nil {
			return sb, err
		}
		streams[i] = st
	}

	for trial := 0; trial < 3; trial++ {
		latencies := make([][]time.Duration, clients)
		errs := make([]error, clients)
		deadline := time.Now().Add(time.Minute)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			n := requests / clients
			if w < requests%clients {
				n++
			}
			wg.Add(1)
			go func(w, n int) {
				defer wg.Done()
				st := streams[w]
				conns[w].SetDeadline(deadline)
				var resp wire.Response
				var sendTimes [tcpPipelineDepth]time.Time
				sent, inflight := 0, 0
				for done := 0; done < n; done++ {
					for inflight < tcpPipelineDepth && sent < n {
						sendTimes[sent%tcpPipelineDepth] = time.Now()
						if err := st.WriteEnvelope(uint32(sent), wire.StreamFlagLookup, payload); err != nil {
							errs[w] = err
							return
						}
						sent++
						inflight++
					}
					id, flags, body, err := st.ReadEnvelope(8 << 20)
					if err != nil {
						errs[w] = err
						return
					}
					if id != uint32(done) {
						errs[w] = fmt.Errorf("response id %d, want %d", id, done)
						return
					}
					if flags&wire.StreamFlagError != 0 {
						errs[w] = fmt.Errorf("daemon error: %s", body)
						return
					}
					if err := resp.DecodeBinary(body); err != nil {
						errs[w] = err
						return
					}
					latencies[w] = append(latencies[w], time.Since(sendTimes[done%tcpPipelineDepth]))
					inflight--
				}
			}(w, n)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return sb, err
			}
		}
		recordBestTrial(&sb, elapsed, latencies)
	}
	return sb, nil
}

// recordBestTrial folds one load pass into sb if it beat the passes
// before it (best of N: loopback throughput on a small shared runner
// is noisy, and the gate compares against the best the machine can
// do).
func recordBestTrial(sb *ServeBench, elapsed time.Duration, latencies [][]time.Duration) {
	dps := float64(sb.Requests*sb.Batch) / elapsed.Seconds()
	if dps <= sb.DecisionsPerSec {
		return
	}
	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(all)-1))
		return float64(all[idx].Microseconds()) / 1000
	}
	sb.Seconds = elapsed.Seconds()
	sb.DecisionsPerSec = dps
	sb.P50Ms = quantile(0.50)
	sb.P99Ms = quantile(0.99)
}

// driveServeLoad issues the batched-lookup load through cl and keeps
// the best of three passes. It closes cl.
func driveServeLoad(cl *client.Client, sb ServeBench, vals []float64) (ServeBench, error) {
	defer cl.Close()
	clients, batch, requests := sb.Clients, sb.Batch, sb.Requests

	// Per-worker wire scratch: requests are identical, decode state is
	// private.
	reqs := make([]*wire.Request, clients)
	resps := make([]*wire.Response, clients)
	for i := range reqs {
		reqs[i] = &wire.Request{}
		reqs[i].Bucket = 0
		for r := 0; r < batch; r++ {
			reqs[i].AppendRow(vals)
		}
		resps[i] = &wire.Response{}
	}

	for trial := 0; trial < 3; trial++ {
		latencies := make([][]time.Duration, clients)
		errs := make([]error, clients)
		start := time.Now()
		parallel.DoWorkers(clients, requests, func(worker, _ int) {
			if errs[worker] != nil {
				return
			}
			t0 := time.Now()
			if err := cl.Decide(true, reqs[worker], resps[worker]); err != nil {
				errs[worker] = err
				return
			}
			latencies[worker] = append(latencies[worker], time.Since(t0))
		})
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return sb, err
			}
		}
		recordBestTrial(&sb, elapsed, latencies)
	}
	return sb, nil
}

// ScenarioRow is one BENCH_scenarios.json claim: a scenario kind's
// absolute fleet metrics and its deltas against the non-adversarial
// baseline fleet at the same seed and shape.
type ScenarioRow struct {
	Kind                 string  `json:"kind"`
	HitRate              float64 `json:"hit_rate"`
	SLOViolationFraction float64 `json:"slo_violation_fraction"`
	CostUSD              float64 `json:"cost_usd"`
	HitRateDelta         float64 `json:"hit_rate_delta"`
	SLOViolationDelta    float64 `json:"slo_violation_delta"`
	CostDeltaPct         float64 `json:"cost_delta_pct"`
}

// ScenarioReport is the BENCH_scenarios.json schema. Every row is
// bit-deterministic at the pinned seed (the sweep runs Workers=1), so
// drift within the gate's tolerance still indicates a real behaviour
// change — the tolerance exists for intentional small recalibrations,
// mirroring the serve gate's posture.
type ScenarioReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Seed       int64         `json:"seed"`
	VMs        int           `json:"vms"`
	Days       int           `json:"days"`
	Baseline   ScenarioRow   `json:"baseline"`
	Scenarios  []ScenarioRow `json:"scenarios"`
}

func scenarioRow(c experiments.ScenarioClaim) ScenarioRow {
	return ScenarioRow{
		Kind:                 c.Kind,
		HitRate:              c.HitRate,
		SLOViolationFraction: c.SLOViolationFraction,
		CostUSD:              c.CostUSD,
		HitRateDelta:         c.HitRateDelta,
		SLOViolationDelta:    c.SLODelta,
		CostDeltaPct:         c.CostDeltaPct,
	}
}

func benchScenarios(seed int64, vms, days int) (*ScenarioReport, error) {
	sweep, err := experiments.ScenarioSweep(experiments.ScenarioOptions{Seed: seed, VMs: vms, Days: days})
	if err != nil {
		return nil, err
	}
	rep := &ScenarioReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       sweep.Seed,
		VMs:        sweep.VMs,
		Days:       sweep.Days,
		Baseline:   scenarioRow(sweep.Baseline),
	}
	for _, c := range sweep.Claims {
		rep.Scenarios = append(rep.Scenarios, scenarioRow(c))
	}
	return rep, nil
}

// scenariosCheck gates the claims: for every kind present in the
// committed baseline, the hit rate and SLO-violation fraction may not
// drift more than `tolerance` in absolute terms, and the cost may not
// drift more than `tolerance` relatively. Kinds absent from the
// baseline are skipped (the baseline predates them), mirroring the
// serve gate's absent-axis skip.
func scenariosCheck(current, baseline *ScenarioReport, tolerance float64) error {
	rows := func(r *ScenarioReport) map[string]ScenarioRow {
		m := map[string]ScenarioRow{r.Baseline.Kind: r.Baseline}
		for _, s := range r.Scenarios {
			m[s.Kind] = s
		}
		return m
	}
	cur := rows(current)
	for kind, bas := range rows(baseline) {
		if bas.Kind == "" {
			continue // baseline predates this row
		}
		c, ok := cur[kind]
		if !ok {
			return fmt.Errorf("scenario %s present in baseline but missing from this run", kind)
		}
		if d := c.HitRate - bas.HitRate; d < -tolerance || d > tolerance {
			return fmt.Errorf("scenario %s hit rate drifted: %.4f vs baseline %.4f (±%.2f allowed)",
				kind, c.HitRate, bas.HitRate, tolerance)
		}
		if d := c.SLOViolationFraction - bas.SLOViolationFraction; d < -tolerance || d > tolerance {
			return fmt.Errorf("scenario %s SLO-violation fraction drifted: %.4f vs baseline %.4f (±%.2f allowed)",
				kind, c.SLOViolationFraction, bas.SLOViolationFraction, tolerance)
		}
		if bas.CostUSD > 0 {
			ratio := c.CostUSD / bas.CostUSD
			if ratio < 1-tolerance || ratio > 1+tolerance {
				return fmt.Errorf("scenario %s cost drifted: $%.2f vs baseline $%.2f (±%d%% allowed)",
					kind, c.CostUSD, bas.CostUSD, int(tolerance*100))
			}
		}
	}
	return nil
}

func serveCheck(current, baseline *ServeReport, tolerance, tcpFloor float64) error {
	// Absolute decisions/s on the multicore row only compares like with
	// like: a baseline recorded on an N-core runner says nothing about a
	// 1-core box (and vice versa), so the regression compare is skipped
	// when the core counts differ — the cores field is recorded honestly
	// for exactly this reason. Re-record the baseline on the runner class
	// that CI actually uses (see BENCHMARKS.md).
	multicoreComparable := current.ServeTCPMulticore.Cores == baseline.ServeTCPMulticore.Cores
	for _, axis := range []struct {
		name     string
		cur, bas float64
		skip     bool
	}{
		{name: "serve_binary", cur: current.ServeBin.DecisionsPerSec, bas: baseline.ServeBin.DecisionsPerSec},
		{name: "serve_tcp", cur: current.ServeTCP.DecisionsPerSec, bas: baseline.ServeTCP.DecisionsPerSec},
		{name: "serve_tcp_multicore", cur: current.ServeTCPMulticore.DecisionsPerSec, bas: baseline.ServeTCPMulticore.DecisionsPerSec, skip: !multicoreComparable},
		{name: "serve_replicated", cur: current.ServeReplicated.DecisionsPerSec, bas: baseline.ServeReplicated.DecisionsPerSec},
	} {
		if axis.bas == 0 || axis.skip {
			continue // baseline predates this axis, or core counts differ
		}
		floor := axis.bas * (1 - tolerance)
		if axis.cur < floor {
			return fmt.Errorf("%s decisions/s regressed: %.0f < %.0f (baseline %.0f - %d%%)",
				axis.name, axis.cur, floor, axis.bas, int(tolerance*100))
		}
	}
	// The hardware-independent part of the gate: the raw-TCP stream
	// transport must beat binary-over-HTTP by its factor on the same
	// single-core load (the point of the transport refactor).
	if current.ServeBin.DecisionsPerSec > 0 && current.ServeTCP.DecisionsPerSec > 0 {
		ratio := current.ServeTCP.DecisionsPerSec / current.ServeBin.DecisionsPerSec
		if ratio < tcpFloor {
			return fmt.Errorf("tcp/binary-http decisions/s ratio fell below floor: %.2fx < %.2fx (tcp %.0f, binary http %.0f)",
				ratio, tcpFloor, current.ServeTCP.DecisionsPerSec, current.ServeBin.DecisionsPerSec)
		}
	}
	// Sharded accept loops must not cost throughput when there are
	// cores to shard over; with one core the row only pins that the
	// multi-accepter path works at all.
	if current.ServeTCPMulticore.Cores > 1 &&
		current.ServeTCPMulticore.DecisionsPerSec < current.ServeTCP.DecisionsPerSec {
		return fmt.Errorf("multi-core tcp serving (%d cores, %.0f decisions/s) slower than single-core (%.0f)",
			current.ServeTCPMulticore.Cores, current.ServeTCPMulticore.DecisionsPerSec, current.ServeTCP.DecisionsPerSec)
	}
	return nil
}

func benchLearn(n int) (LearnBench, error) {
	const (
		seed    = 42
		dims    = 6
		classes = 5
		minK    = 2
		maxK    = 12
	)
	// A fleet-scale signature set with workload-class structure
	// (well-separated means, unit-ish noise) like the ones the
	// learning phase clusters after CFS projection.
	X := ml.ClusteredDataset(seed, n, dims, classes)
	lb := LearnBench{N: n, Dims: dims, MinK: minK, MaxK: maxK, Restarts: 5, Seed: seed}

	// Fast engine: best of three sweeps, fresh RNG each so every
	// sweep consumes the identical derived-seed stream.
	fast := time.Duration(1<<63 - 1)
	var fastRes *ml.KMeansResult
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		res, err := ml.KMeansAuto(X, minK, maxK, ml.KMeansConfig{Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			return lb, err
		}
		if el := time.Since(start); el < fast {
			fast = el
		}
		fastRes = res
	}

	// Reference path (naive Lloyd + exact per-k silhouette), once —
	// it is the expensive side by construction.
	start := time.Now()
	refRes, err := ml.KMeansAutoReference(X, minK, maxK, ml.KMeansConfig{Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		return lb, err
	}
	baseline := time.Since(start)

	lb.FastMs = float64(fast.Microseconds()) / 1000
	lb.BaselineMs = float64(baseline.Microseconds()) / 1000
	if lb.FastMs > 0 {
		lb.Speedup = lb.BaselineMs / lb.FastMs
	}
	lb.ChosenK = fastRes.K
	lb.BaselineChosenK = refRes.K
	return lb, nil
}

func learnCheck(current, baseline *LearnReport, tolerance, speedupFloor float64) error {
	if current.KMeansAuto.ChosenK != current.KMeansAuto.BaselineChosenK {
		return fmt.Errorf("learn chosen k diverged: fast=%d reference=%d (seed %d)",
			current.KMeansAuto.ChosenK, current.KMeansAuto.BaselineChosenK, current.KMeansAuto.Seed)
	}
	if baseline.KMeansAuto.ChosenK != 0 && current.KMeansAuto.ChosenK != baseline.KMeansAuto.ChosenK {
		return fmt.Errorf("learn chosen k drifted from committed baseline: %d != %d",
			current.KMeansAuto.ChosenK, baseline.KMeansAuto.ChosenK)
	}
	if ceiling := baseline.KMeansAuto.FastMs * (1 + tolerance); current.KMeansAuto.FastMs > ceiling {
		return fmt.Errorf("learn KMeansAuto regressed: %.1fms > %.1fms (baseline %.1fms + %d%%)",
			current.KMeansAuto.FastMs, ceiling, baseline.KMeansAuto.FastMs, int(tolerance*100))
	}
	if current.KMeansAuto.Speedup < speedupFloor {
		return fmt.Errorf("learn speedup over reference fell below floor: %.1fx < %.1fx",
			current.KMeansAuto.Speedup, speedupFloor)
	}
	return nil
}

func toBench(r testing.BenchmarkResult) Bench {
	return Bench{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func benchFleet(vms int) (FleetBench, error) {
	var runErr error
	var lastRes *fleet.Result
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			specs, err := sim.GenerateScenario(sim.ScenarioConfig{
				Rng:         rand.New(rand.NewSource(42)),
				VMs:         vms,
				Days:        1,
				Homogeneous: true,
			})
			if err != nil {
				runErr = err
				b.FailNow()
			}
			b.StartTimer()
			res, err := fleet.Run(fleet.Config{Specs: specs})
			if err != nil {
				runErr = err
				b.FailNow()
			}
			b.ReportMetric(res.StepsPerSecond(), "steps/s")
			b.ReportMetric(100*res.HitRate(), "repo-hit%")
			lastRes = res
		}
	})
	if runErr != nil {
		return FleetBench{}, runErr
	}
	out := FleetBench{
		VMs:         vms,
		StepsPerSec: r.Extra["steps/s"],
		RepoHitPct:  r.Extra["repo-hit%"],
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if lastRes != nil {
		out.LearnPhase = lastRes.LearnPhase
		out.StepPhase = lastRes.StepPhase
	}
	return out, nil
}

// benchFleetScale times one full fleet run at scale: all cores,
// DiscardRecords (aggregates are bit-identical to a recording run, and
// 100k VMs of step records would need >10 GB for output nobody reads).
// One run, not best-of-N: at this size a single run phase is seconds
// of work and the per-core gate's 20% tolerance absorbs scheduler
// noise.
func benchFleetScale(vms int) (FleetScaleBench, error) {
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:         rand.New(rand.NewSource(42)),
		VMs:         vms,
		Days:        1,
		Homogeneous: true,
	})
	if err != nil {
		return FleetScaleBench{}, err
	}
	workers := runtime.GOMAXPROCS(0)
	res, err := fleet.Run(fleet.Config{Specs: specs, Workers: workers, DiscardRecords: true})
	if err != nil {
		return FleetScaleBench{}, err
	}
	cores := runtime.GOMAXPROCS(0)
	out := FleetScaleBench{
		VMs:            vms,
		Workers:        workers,
		Cores:          cores,
		Seconds:        res.Elapsed.Seconds(),
		StepsPerSec:    res.StepsPerSecond(),
		RepoHitPct:     100 * res.HitRate(),
		DiscardRecords: true,
	}
	if cores > 0 {
		out.StepsPerSecPerCore = out.StepsPerSec / float64(cores)
	}
	return out, nil
}

func benchSignatureCollection() (Bench, error) {
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		svc := services.NewCassandra()
		prof, err := core.NewProfiler(svc, rand.New(rand.NewSource(4)))
		if err != nil {
			runErr = err
			b.FailNow()
		}
		events := []metrics.Event{metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt}
		w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
		var sig core.Signature
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := prof.ProfileInto(w, events, prof.Window, &sig); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	return toBench(r), runErr
}

func benchServicePerf() Bench {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		svc := services.NewCassandra()
		memo := services.NewPerfMemo(svc)
		w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = memo.Perf(&w, 7)
		}
	})
	return toBench(r)
}

func benchMVA(memoized bool) (Bench, error) {
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		nw := &queueing.Network{Demands: []float64{0.010, 0.025, 0.008}, ThinkTime: 1.5}
		ms := queueing.NewMemoSolver()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if memoized {
				_, err = ms.Solve(nw, 500)
			} else {
				_, err = nw.Solve(500)
			}
			if err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	return toBench(r), runErr
}

func check(current, baseline *Report, tolerance float64) error {
	floor := baseline.Fleet.StepsPerSec * (1 - tolerance)
	if current.Fleet.StepsPerSec < floor {
		return fmt.Errorf("fleet steps/s regressed: %.0f < %.0f (baseline %.0f - %d%%)",
			current.Fleet.StepsPerSec, floor, baseline.Fleet.StepsPerSec, int(tolerance*100))
	}
	allocChecks := []struct {
		name     string
		cur, bas int64
	}{
		{"fleet", current.Fleet.AllocsPerOp, baseline.Fleet.AllocsPerOp},
		{"signature_collection", current.SignatureCollection.AllocsPerOp, baseline.SignatureCollection.AllocsPerOp},
		{"service_perf", current.ServicePerf.AllocsPerOp, baseline.ServicePerf.AllocsPerOp},
	}
	for _, c := range allocChecks {
		// Allocation counts are deterministic; allow slack only for the
		// fleet run, whose per-op counts include goroutine machinery
		// (tightened from bas/5 once the per-run setup allocations were
		// pooled away).
		slack := int64(0)
		if c.name == "fleet" {
			slack = c.bas / 10
		}
		if c.cur > c.bas+slack {
			return fmt.Errorf("%s allocs/op regressed: %d > baseline %d", c.name, c.cur, c.bas)
		}
	}
	// Scale rows gate on steps/s-per-core, the core-count-normalized
	// throughput, so a baseline recorded on an N-core runner still
	// gates a M-core one. Rows the baseline lacks are skipped (it
	// predates them), mirroring the serve gate's absent-axis posture —
	// which also lets CI run only the 10k row against a baseline that
	// carries 10k and 100k.
	basScale := make(map[int]FleetScaleBench, len(baseline.FleetScale))
	for _, row := range baseline.FleetScale {
		basScale[row.VMs] = row
	}
	for _, cur := range current.FleetScale {
		bas, ok := basScale[cur.VMs]
		if !ok || bas.StepsPerSecPerCore == 0 {
			continue // baseline predates this row
		}
		floor := bas.StepsPerSecPerCore * (1 - tolerance)
		if cur.StepsPerSecPerCore < floor {
			return fmt.Errorf("fleet_scale vms=%d steps/s/core regressed: %.0f < %.0f (baseline %.0f @ %d cores - %d%%; current @ %d cores)",
				cur.VMs, cur.StepsPerSecPerCore, floor, bas.StepsPerSecPerCore, bas.Cores, int(tolerance*100), cur.Cores)
		}
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// fatalf prints a prefixed error and exits 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dejavu-bench: "+format+"\n", args...)
	os.Exit(1)
}

// readBaseline reads and parses a committed baseline file, exiting on
// failure; nil means no baseline was requested. Baselines are read up
// front so `-out X -check X` regresses against the previous contents,
// not the freshly written ones.
func readBaseline[T any](path, what string) *T {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("read %s baseline: %v", what, err)
	}
	b := new(T)
	if err := json.Unmarshal(data, b); err != nil {
		fatalf("parse %s baseline: %v", what, err)
	}
	return b
}

// emitReport prints the report to stdout and, when outPath is set,
// writes it there too, exiting on failure.
func emitReport(outPath string, v any) {
	if err := writeJSON(os.Stdout, v); err != nil {
		fatalf("%v", err)
	}
	if outPath == "" {
		return
	}
	f, err := os.Create(outPath)
	if err != nil {
		fatalf("%v", err)
	}
	err = writeJSON(f, v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func main() {
	out := flag.String("out", "", "write results to this JSON file")
	checkPath := flag.String("check", "", "compare against this baseline JSON and fail on regression")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional regression with -check/-learn-check")
	vms := flag.Int("vms", 100, "fleet size for the headline benchmark")
	scaleVMs := flag.String("scale-vms", "", "comma-separated fleet sizes for single-shot scale rows (e.g. 10000,100000)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	learnOut := flag.String("learn-out", "", "write learn-phase results to this JSON file")
	learnCheckPath := flag.String("learn-check", "", "compare the learn phase against this baseline JSON and fail on regression")
	learnN := flag.Int("learn-n", 6000, "signature-set size for the learn-phase benchmark")
	speedupFloor := flag.Float64("learn-speedup-floor", 5.0, "minimum KMeansAuto speedup over the reference path with -learn-check")
	serveOut := flag.String("serve-out", "", "write decision-service results to this JSON file")
	serveCheckPath := flag.String("serve-check", "", "compare the decision service against this baseline JSON and fail on regression")
	serveClients := flag.Int("serve-clients", 8, "concurrent load-generator clients for the serve benchmark")
	serveBatch := flag.Int("serve-batch", 16, "signatures per batched lookup in the serve benchmark")
	serveRequests := flag.Int("serve-requests", 8000, "total requests issued by the serve benchmark per row")
	serveTCPFloor := flag.Float64("serve-tcp-floor", 2.0, "minimum tcp/binary-http decisions/s ratio with -serve-check")
	scenariosOut := flag.String("scenarios-out", "", "write adversarial scenario claims to this JSON file")
	scenariosCheckPath := flag.String("scenarios-check", "", "compare scenario claims against this baseline JSON and fail on drift")
	scenariosVMs := flag.Int("scenarios-vms", 8, "fleet size per scenario for the claims harness")
	scenariosDays := flag.Int("scenarios-days", 1, "run days per scenario for the claims harness")
	scenariosSeed := flag.Int64("scenarios-seed", 42, "seed for the claims harness")
	flag.Parse()

	// Profiles cover everything the invocation runs; feed them to
	// `go tool pprof` to see where scale-row steps/s goes.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	baseline := readBaseline[Report](*checkPath, "fleet")
	learnBaseline := readBaseline[LearnReport](*learnCheckPath, "learn")
	serveBaseline := readBaseline[ServeReport](*serveCheckPath, "serve")
	scenariosBaseline := readBaseline[ScenarioReport](*scenariosCheckPath, "scenarios")

	// The adversarial-scenario claims harness runs when asked for.
	if *scenariosOut != "" || *scenariosCheckPath != "" {
		scenRep, err := benchScenarios(*scenariosSeed, *scenariosVMs, *scenariosDays)
		if err != nil {
			fatalf("scenarios: %v", err)
		}
		emitReport(*scenariosOut, scenRep)
		if scenariosBaseline != nil {
			if err := scenariosCheck(scenRep, scenariosBaseline, *tolerance); err != nil {
				fatalf("REGRESSION: %v", err)
			}
			fmt.Fprintf(os.Stderr, "dejavu-bench: scenarios ok vs %s (%d adversarial kinds, baseline hit %.3f cost $%.2f)\n",
				*scenariosCheckPath, len(scenRep.Scenarios), scenRep.Baseline.HitRate, scenRep.Baseline.CostUSD)
		}
		// Scenario-only invocations skip the other benchmarks.
		if *out == "" && *checkPath == "" && *learnOut == "" && *learnCheckPath == "" &&
			*serveOut == "" && *serveCheckPath == "" {
			return
		}
	}

	// The decision-service benchmark runs when asked for.
	if *serveOut != "" || *serveCheckPath != "" {
		serveRep := &ServeReport{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
		if err := benchServe(serveRep, *serveClients, *serveBatch, *serveRequests); err != nil {
			fatalf("serve: %v", err)
		}
		emitReport(*serveOut, serveRep)
		if serveBaseline != nil {
			if err := serveCheck(serveRep, serveBaseline, *tolerance, *serveTCPFloor); err != nil {
				fatalf("REGRESSION: %v", err)
			}
			fmt.Fprintf(os.Stderr, "dejavu-bench: serve ok vs %s (binary %.0f, tcp %.0f decisions/s, tcp %.1fx binary, multicore %.0f @ %d cores, replicated %.0f @ %d replicas, tcp p99 %.2fms)\n",
				*serveCheckPath, serveRep.ServeBin.DecisionsPerSec,
				serveRep.ServeTCP.DecisionsPerSec, serveRep.ServeTCP.DecisionsPerSec/serveRep.ServeBin.DecisionsPerSec,
				serveRep.ServeTCPMulticore.DecisionsPerSec, serveRep.ServeTCPMulticore.Cores,
				serveRep.ServeReplicated.DecisionsPerSec, serveRep.ServeReplicated.Replicas, serveRep.ServeTCP.P99Ms)
		}
		// Serve-only invocations skip the other benchmarks.
		if *out == "" && *checkPath == "" && *learnOut == "" && *learnCheckPath == "" {
			return
		}
	}

	// The learn-phase benchmark runs when asked for (it times the
	// deliberately slow reference path, so it is not free).
	if *learnOut != "" || *learnCheckPath != "" {
		learnRep := &LearnReport{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
		var err error
		if learnRep.KMeansAuto, err = benchLearn(*learnN); err != nil {
			fatalf("learn: %v", err)
		}
		emitReport(*learnOut, learnRep)
		if learnBaseline != nil {
			if err := learnCheck(learnRep, learnBaseline, *tolerance, *speedupFloor); err != nil {
				fatalf("REGRESSION: %v", err)
			}
			fmt.Fprintf(os.Stderr, "dejavu-bench: learn phase ok vs %s (%.1fms, %.1fx over reference, k=%d)\n",
				*learnCheckPath, learnRep.KMeansAuto.FastMs, learnRep.KMeansAuto.Speedup, learnRep.KMeansAuto.ChosenK)
		}
		// Learn-only invocations skip the fleet benchmarks.
		if *out == "" && *checkPath == "" {
			return
		}
	}

	rep := &Report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var err error
	if rep.Fleet, err = benchFleet(*vms); err != nil {
		fatalf("fleet: %v", err)
	}
	if rep.SignatureCollection, err = benchSignatureCollection(); err != nil {
		fatalf("signature collection: %v", err)
	}
	rep.ServicePerf = benchServicePerf()
	if rep.MVASolve, err = benchMVA(false); err != nil {
		fatalf("mva: %v", err)
	}
	if rep.MVAMemoized, err = benchMVA(true); err != nil {
		fatalf("mva memo: %v", err)
	}
	if *scaleVMs != "" {
		for _, field := range strings.Split(*scaleVMs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || n <= 0 {
				fatalf("scale-vms: bad fleet size %q", field)
			}
			row, err := benchFleetScale(n)
			if err != nil {
				fatalf("fleet scale vms=%d: %v", n, err)
			}
			fmt.Fprintf(os.Stderr, "dejavu-bench: scale vms=%d %.0f steps/s (%.0f per core, %d workers, %.1fs)\n",
				row.VMs, row.StepsPerSec, row.StepsPerSecPerCore, row.Workers, row.Seconds)
			rep.FleetScale = append(rep.FleetScale, row)
		}
	}
	emitReport(*out, rep)
	if baseline != nil {
		if err := check(rep, baseline, *tolerance); err != nil {
			fatalf("REGRESSION: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dejavu-bench: no regression vs %s (steps/s %.0f >= %.0f)\n",
			*checkPath, rep.Fleet.StepsPerSec, baseline.Fleet.StepsPerSec*(1-*tolerance))
	}
}
