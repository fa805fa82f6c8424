package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/testkit"
)

// TestHistogramRecordZeroAlloc pins the instrumentation contract the
// serving gates rely on: recording into a histogram or counter — and
// building a trace header into caller scratch — allocates nothing.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector distorts allocation counts")
	}
	var h Histogram
	var c Counter
	record := func() {
		h.Record(1234 * time.Nanosecond)
		c.Inc()
	}
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Errorf("Record+Inc allocates %.1f times per op, want 0", allocs)
		t.Log(testkit.AllocSites(1000, record))
	}

	var snap Snapshot
	snapshot := func() { snap = h.Snapshot() }
	if allocs := testing.AllocsPerRun(100, snapshot); allocs != 0 {
		t.Errorf("Snapshot allocates %.1f times per op, want 0", allocs)
		t.Log(testkit.AllocSites(100, snapshot))
	}
	_ = snap

	tc := TraceContext{Trace: NextID(), Span: NextID()}
	buf := make([]byte, 0, HeaderContextLen)
	wbuf := make([]byte, 0, WireContextLen)
	context := func() {
		buf = tc.AppendHeader(buf[:0])
		wbuf = tc.AppendWire(wbuf[:0])
		if _, ok := ParseWireContext(wbuf); !ok {
			t.Fatal("parse")
		}
	}
	if allocs := testing.AllocsPerRun(1000, context); allocs != 0 {
		t.Errorf("trace context append/parse allocates %.1f times per op, want 0", allocs)
		t.Log(testkit.AllocSites(1000, context))
	}
}

//go:noinline
func allocateForSites() *[4]int64 { return new([4]int64) }

var allocSitesSink *[4]int64

// TestAllocSitesNamesTheSite: the report an allocation pin logs on
// failure counts the allocations of the runs and names the function
// that made them.
func TestAllocSitesNamesTheSite(t *testing.T) {
	report := testkit.AllocSites(50, func() { allocSitesSink = allocateForSites() })
	if !strings.Contains(report, "50 allocations (1.0 per run) at:\n\trepro/internal/obs.allocateForSites\n") {
		t.Errorf("report does not name the allocating function, once per run:\n%s", report)
	}
	if !strings.Contains(report, "goroutines:\ngoroutine ") {
		t.Errorf("report has no goroutine dump:\n%s", report)
	}
}
