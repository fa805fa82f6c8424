package obs

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// oracleBucket recomputes bucketOf from first principles for the
// property test: the log₂ bucket is the index of the highest set bit.
func oracleBucket(ns int64) int {
	if ns < 2 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// TestHistogramPropertyVsOracle drives seeded workloads of several
// shapes through a Histogram and checks the snapshot against an exact
// sorted-sample oracle: bucket counts match an independent per-sample
// recomputation exactly, the sum matches exactly, and every quantile
// estimate lands in the same log₂ bucket as the exact sample quantile
// (the precision the bucket layout promises).
func TestHistogramPropertyVsOracle(t *testing.T) {
	workloads := []struct {
		name string
		gen  func(r *rand.Rand) int64
	}{
		{"uniform_us", func(r *rand.Rand) int64 { return r.Int63n(1_000_000) }},
		{"exp_ns", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 50_000) }},
		{"bimodal", func(r *rand.Rand) int64 {
			if r.Intn(10) == 0 {
				return 5_000_000 + r.Int63n(5_000_000) // slow tail
			}
			return 500 + r.Int63n(2_000) // fast mode
		}},
		{"zero_heavy", func(r *rand.Rand) int64 { return r.Int63n(3) }},
		{"huge", func(r *rand.Rand) int64 { return r.Int63n(1 << 45) }}, // overflow bucket
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var h Histogram
			const n = 20_000
			samples := make([]int64, 0, n)
			var wantCounts [NumBuckets]int64
			var wantSum int64
			for i := 0; i < n; i++ {
				ns := wl.gen(rng)
				samples = append(samples, ns)
				wantCounts[oracleBucket(ns)]++
				wantSum += ns
				h.Record(time.Duration(ns))
			}
			s := h.Snapshot()
			if s.Count != n {
				t.Fatalf("count %d, want %d", s.Count, n)
			}
			if s.SumNS != wantSum {
				t.Fatalf("sum %d, want %d", s.SumNS, wantSum)
			}
			if s.Counts != wantCounts {
				t.Fatalf("bucket counts diverge from oracle:\ngot  %v\nwant %v", s.Counts, wantCounts)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
				exact := samples[int(q*float64(n-1))]
				est := int64(s.Quantile(q))
				if oracleBucket(est) != oracleBucket(exact) {
					t.Errorf("q=%v: estimate %dns (bucket %d) not in exact sample's bucket %d (exact %dns)",
						q, est, oracleBucket(est), oracleBucket(exact), exact)
				}
			}
			if mean := s.Mean(); int64(mean) != wantSum/n {
				t.Errorf("mean %v, want %dns", mean, wantSum/n)
			}
		})
	}
}

// TestHistogramConcurrentRecord hammers one histogram from many
// goroutines — under -race this doubles as the data-race proof — and
// checks that no observation is lost or double-counted.
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var c Counter
	const workers = 8
	const perWorker = 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(rng.Int63n(1_000_000)))
				c.Inc()
			}
		}(int64(w))
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*perWorker {
		t.Fatalf("histogram lost records: count %d, want %d", s.Count, workers*perWorker)
	}
	if n := c.Load(); n != workers*perWorker {
		t.Fatalf("counter lost adds: %d, want %d", n, workers*perWorker)
	}
}

func TestSnapshotMergeAndSummary(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(time.Microsecond)
		b.Record(time.Millisecond)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 200 {
		t.Fatalf("merged count %d", s.Count)
	}
	sum := s.Summary()
	if sum.Count != 200 || sum.P50US <= 0 || sum.P99US < sum.P50US || sum.MeanUS <= 0 {
		t.Fatalf("summary not monotone: %+v", sum)
	}
}

func TestQuantileEmptyAndClamp(t *testing.T) {
	var s Snapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot quantile/mean must be 0")
	}
	var h Histogram
	h.Record(100 * time.Nanosecond)
	snap := h.Snapshot()
	if snap.Quantile(-1) < 0 || snap.Quantile(2) < 0 {
		t.Fatal("out-of-range q must clamp, not go negative")
	}
}

func TestWritePrometheusShape(t *testing.T) {
	var h Histogram
	h.Record(3 * time.Microsecond)
	h.Record(2 * time.Millisecond)
	var buf bytes.Buffer
	h.Snapshot().WritePrometheus(&buf, "x_seconds", `template="a"`)
	out := buf.String()
	for _, want := range []string{
		`x_seconds_bucket{template="a",le="+Inf"} 2`,
		"x_seconds_count{template=\"a\"} 2\n",
		`x_seconds_sum{template="a"} `,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Unlabeled form has no braces on _sum/_count and only le on buckets.
	buf.Reset()
	h.Snapshot().WritePrometheus(&buf, "y_seconds", "")
	if !bytes.Contains(buf.Bytes(), []byte("y_seconds_count 2\n")) {
		t.Errorf("unlabeled count line malformed:\n%s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`y_seconds_bucket{le="4e-09"} `)) {
		t.Errorf("unlabeled bucket line malformed:\n%s", buf.String())
	}
}

// TestWriteExpositionShape pins the one writer of # HELP / # TYPE: each
// family announces itself once, ahead of its samples — also when it has
// none — and a labeled family keeps its samples together. (The strict
// grammar check runs over whole /metrics documents in internal/server,
// where the linter lives.)
func TestWriteExpositionShape(t *testing.T) {
	var h Histogram
	h.Record(3 * time.Microsecond)
	var buf bytes.Buffer
	WriteExposition(&buf, []Metric{
		Scalar("a_total", "A counter.", "counter", 7),
		{Name: "b", Help: "A labeled gauge.", Type: "gauge", Samples: []Sample{
			{Labels: `template="x"`, Value: 1.5}, {Labels: `template="y"`, Value: 2e9},
		}},
		{Name: "c_seconds", Help: "No samples yet.", Type: "histogram"},
		Hist("d_seconds", "One series.", h.Snapshot()),
	})
	out := buf.String()
	for _, want := range []string{
		"# HELP a_total A counter.\n# TYPE a_total counter\na_total 7\n",
		"# HELP b A labeled gauge.\n# TYPE b gauge\nb{template=\"x\"} 1.5\nb{template=\"y\"} 2e+09\n",
		"# HELP c_seconds No samples yet.\n# TYPE c_seconds histogram\n# HELP d_seconds One series.\n# TYPE d_seconds histogram\nd_seconds_bucket{le=",
		"d_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE "); n != 4 {
		t.Errorf("%d # TYPE lines for 4 families:\n%s", n, out)
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`q"uote`:       `q\"uote`,
		"back\\slash":  `back\\slash`,
		"new\nline":    `new\nline`,
		"utf8 — fine":  "utf8 — fine",
		"tab\tpresent": "tab\tpresent", // tabs pass through per the format
	}
	for in, want := range cases {
		if got := EscapeLabel(in); got != want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTraceContextCodecs(t *testing.T) {
	tc := TraceContext{Trace: NextID(), Span: NextID()}
	if !tc.Valid() {
		t.Fatal("a context with a trace id must be valid")
	}
	wire := tc.AppendWire(nil)
	if len(wire) != WireContextLen {
		t.Fatalf("wire form %d bytes", len(wire))
	}
	back, ok := ParseWireContext(wire)
	if !ok || back != tc {
		t.Fatalf("wire round-trip %+v -> %+v", tc, back)
	}
	if _, ok := ParseWireContext(wire[:15]); ok {
		t.Fatal("short wire context must not parse")
	}
	hdr := string(tc.AppendHeader(nil))
	if len(hdr) != HeaderContextLen {
		t.Fatalf("header form %d chars", len(hdr))
	}
	back, ok = ParseHeaderContext(hdr)
	if !ok || back != tc {
		t.Fatalf("header round-trip %+v -> %+v via %q", tc, back, hdr)
	}
	for _, bad := range []string{"", "zz", hdr[:31], hdr[:31] + "g"} {
		if _, ok := ParseHeaderContext(bad); ok {
			t.Errorf("bad header %q parsed", bad)
		}
	}
	child := Child(tc)
	if child.Trace != tc.Trace || child.Span == tc.Span || child.Span == 0 {
		t.Fatalf("child %+v of %+v", child, tc)
	}
}

func TestSpanRingWrapAndDump(t *testing.T) {
	r := NewSpanRing(16)
	for i := 0; i < 40; i++ {
		r.Record(Span{Trace: 1, ID: HexID(i + 1), Component: "c", Op: "o", Start: int64(i)})
	}
	if r.Total() != 40 {
		t.Fatalf("total %d", r.Total())
	}
	spans := r.Spans()
	if len(spans) != 16 {
		t.Fatalf("ring kept %d spans", len(spans))
	}
	for i, sp := range spans {
		if want := HexID(40 - 16 + i + 1); sp.ID != want {
			t.Fatalf("span %d: id %v, want %v (oldest-first order broken)", i, sp.ID, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc TraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace doc does not round-trip: %v\n%s", err, buf.String())
	}
	if doc.Component != "test" || doc.Total != 40 || len(doc.Spans) != 16 {
		t.Fatalf("doc %+v", doc)
	}
	if doc.Spans[15].ID != 40 {
		t.Fatalf("hex id round-trip: %v", doc.Spans[15].ID)
	}

	// A nil ring swallows everything quietly.
	var nilRing *SpanRing
	nilRing.Record(Span{})
	if nilRing.Total() != 0 || nilRing.Spans() != nil {
		t.Fatal("nil ring must be inert")
	}
}

func TestNextIDUniqueEnough(t *testing.T) {
	seen := make(map[uint64]bool, 10_000)
	for i := 0; i < 10_000; i++ {
		id := NextID()
		if id == 0 || seen[id] {
			t.Fatalf("id %d duplicated or zero at iteration %d", id, i)
		}
		seen[id] = true
	}
}
