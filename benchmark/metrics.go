package main

import (
	"fmt"
	"math"
	"sort"
)

// decl declares one metric: its unit, whether it is an end-to-end
// metric (gated, emitted by every workload) or a per-layer one
// (ungated; 0 on a workload whose path never enters the layer), and
// which direction is better. The list is the single source of metric
// names: BENCHMARK.json must carry exactly these (the self-test
// compares the two sets), and a workload that records an undeclared
// name is a bug, not a new metric.
type decl struct {
	name   string
	unit   string
	e2e    bool
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

var declared = []decl{
	// End-to-end: what an operator of the system sees. An "op" is the
	// workload's own unit of work — a simulated VM step on the fleets,
	// a decided signature on serve_batch16, a whole adaptation on adapt.
	{"ops_per_s", "1/s", true, "higher", 0.25},
	{"setup_s", "s", true, "lower", 0.25},

	// The end-to-end rate under the name each workload's readers use,
	// plus the closed-loop latency view of serve_batch16.
	{"fleet.steps_per_s", "1/s", false, "higher", 0},
	{"serve.decisions_per_s", "1/s", false, "higher", 0},
	{"serve.request_p50_us", "us", false, "lower", 0},
	{"server.request_p99_us", "us", false, "lower", 0},
	{"adapt.adapt_s", "s", false, "lower", 0},
	{"failed_frac", "ratio", false, "lower", 0},

	// Read off public results and accessors after the untraced passes.
	{"fleet.learn_ms", "ms", false, "lower", 0},
	{"fleet.vm_run_p50_us", "us", false, "lower", 0},
	{"fleet.vm_run_p99_us", "us", false, "lower", 0},
	{"fleet.allocs_per_vm", "count", false, "lower", 0},
	{"fleet.alloc_bytes_per_vm", "B", false, "lower", 0},
	{"fleet.remote_tax", "ratio", false, "lower", 0},
	{"fleet.tier_tax", "ratio", false, "lower", 0},
	{"fleet.hit_rate", "ratio", false, "higher", 0},
	{"fleet.slo_violation_frac", "ratio", false, "lower", 0},
	{"fleet.cost_usd", "usd", false, "lower", 0},
	{"core.tuning_cache_hit_ratio", "ratio", false, "higher", 0},
	{"client.decides", "count", false, "lower", 0},
	{"client.retries", "count", false, "lower", 0},
	{"client.request_p99_us", "us", false, "lower", 0},
	{"server.lookup_requests", "count", false, "lower", 0},
	{"server.put_requests", "count", false, "lower", 0},
	{"server.get_requests", "count", false, "lower", 0},
	{"server.bad_requests", "count", false, "lower", 0},
	{"server.tcp_refused", "count", false, "lower", 0},
	{"replica.failovers", "count", false, "lower", 0},
	{"replica.install_ms", "ms", false, "lower", 0},
	{"proxy.front_decide_p50_us", "us", false, "lower", 0},

	// Traced run, part 1: spans around the engine's three interfaces.
	{"trace.overhead_frac", "ratio", false, "lower", 0},
	{"core.source_lookup_p50_us", "us", false, "lower", 0},
	{"core.source_lookup_solo_p50_us", "us", false, "lower", 0},
	{"core.source_lookup_count", "count", false, "lower", 0},
	{"core.source_get_count", "count", false, "lower", 0},
	{"core.source_put_count", "count", false, "lower", 0},
	{"core.source_put_p50_us", "us", false, "lower", 0},
	{"core.tune_count", "count", false, "lower", 0},
	{"core.tune_p50_us", "us", false, "lower", 0},
	{"core.controller_step_ns", "ns", false, "lower", 0},
	{"sim.run_self_ns_per_step", "ns", false, "lower", 0},

	// Traced run, part 2: the decision budget, one stage at a time.
	{"wire.req_encode_ns", "ns", false, "lower", 0},
	{"wire.req_decode_ns", "ns", false, "lower", 0},
	{"wire.resp_encode_ns", "ns", false, "lower", 0},
	{"wire.resp_decode_ns", "ns", false, "lower", 0},
	{"wire.req_decode_b16_ns", "ns", false, "lower", 0},
	{"wire.resp_encode_b16_ns", "ns", false, "lower", 0},
	{"core.lookup_ns", "ns", false, "lower", 0},
	{"core.profile_ns", "ns", false, "lower", 0},
	{"services.perf_ns", "ns", false, "lower", 0},
	{"queueing.mva_memo_ns", "ns", false, "lower", 0},
	{"obs.hist_record_ns", "ns", false, "lower", 0},
	{"wire.stream_echo_rtt_us", "us", false, "lower", 0},
	{"server.tcp_rtt_us", "us", false, "lower", 0},
	{"server.http_rtt_us", "us", false, "lower", 0},
	{"client.decide_us", "us", false, "lower", 0},
	{"replica.decide_us", "us", false, "lower", 0},
	{"proxy.front_decide_us", "us", false, "lower", 0},
	{"server.self_us", "us", false, "lower", 0},
	{"client.self_us", "us", false, "lower", 0},
	{"replica.self_us", "us", false, "lower", 0},
	{"proxy.self_us", "us", false, "lower", 0},
	{"budget.remote_residual_frac", "ratio", false, "lower", 0},
	{"budget.tier_residual_frac", "ratio", false, "lower", 0},
	{"ml.kmeans_auto_ms", "ms", false, "lower", 0},
	{"ml.chosen_k", "count", false, "higher", 0},
	{"core.relearn_self_ms", "ms", false, "lower", 0},
	{"core.save_us", "us", false, "lower", 0},
	{"core.load_us", "us", false, "lower", 0},
}

func declOf(name string) (decl, bool) {
	for _, d := range declared {
		if d.name == name {
			return d, true
		}
	}
	return decl{}, false
}

// summary is the spread recorded next to every median: the run record
// never carries a bare number.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quartiles returns the cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so a
// spread printed here is the number the acceptance rule computes. With
// fewer than two samples all three collapse onto the sample.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values)}
	if len(values) == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, x := range values {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

// relSpread is the acceptance rule's spread: the interquartile
// distance as a share of the median.
func relSpread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// recorder collects one workload's samples by metric name.
type recorder struct {
	samples map[string][]float64
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

// add appends one sample. Recording a name that is not declared is a
// programming error in the benchmark itself.
func (r *recorder) add(name string, v float64) {
	if _, ok := declOf(name); !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared", name))
	}
	r.samples[name] = append(r.samples[name], v)
}

// set replaces a metric's samples with one value (derived metrics).
func (r *recorder) set(name string, v float64) {
	delete(r.samples, name)
	r.add(name, v)
}

func (r *recorder) median(name string) float64 { return median(r.samples[name]) }

// summaries digests every recorded metric, in declaration order.
func (r *recorder) summaries() []namedSummary {
	var out []namedSummary
	for _, d := range declared {
		if v, ok := r.samples[d.name]; ok {
			out = append(out, namedSummary{Name: d.name, E2E: d.e2e, summary: summarize(d.unit, v)})
		}
	}
	return out
}

type namedSummary struct {
	Name string `json:"name"`
	E2E  bool   `json:"end_to_end"`
	summary
}
