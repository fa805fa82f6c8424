package client

import (
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestClientStatsSnapshot pins the client's local instrumentation:
// every Decide lands in the request-latency histogram, TraceEvery
// samples root spans at the configured rate, and a multi-row
// LookupRows counts as the one Decide it is — all surfaced through
// StatsSnapshot without touching the daemon.
func TestClientStatsSnapshot(t *testing.T) {
	repo := learnRepo(t, 61)
	addr, _ := startDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})
	vals := foreseen(t, repo, 62, 300)

	c, err := New(Config{
		Addr:       addr,
		Encoding:   wire.EncodingBinary,
		TraceEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var req wire.Request
	req.SetTemplate("cassandra")
	req.AppendRow(vals)
	var resp wire.Response
	const direct = 4
	for i := 0; i < direct; i++ {
		if err := c.Decide(true, &req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	// TraceEvery=2 roots a span on every second Decide: the client's
	// own hop, a root that took real time.
	roots := c.spans.Spans()
	if len(roots) != direct/2 {
		t.Errorf("sampled %d root spans over %d decides at TraceEvery=2", len(roots), direct)
	}
	for _, root := range roots {
		if root.Component != "client" || root.Op != "lookup" || root.Parent != 0 || root.Trace == 0 || root.DurationNS <= 0 {
			t.Errorf("client root span: %+v", root)
		}
	}

	// Four rows through the batch capability are one frame.
	src, err := c.Source("cassandra", repo.EventsRef())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.LookupResult, 4)
	if err := src.LookupRows(0, [][]float64{vals, vals, vals, vals}, out); err != nil {
		t.Fatal(err)
	}

	st := c.StatsSnapshot()
	if st.Decides != direct+1 {
		t.Errorf("decides %d, want %d", st.Decides, direct+1)
	}
	if st.Request.Count != st.Decides {
		t.Errorf("request digest count %d for %d decides", st.Request.Count, st.Decides)
	}
	if st.Request.MeanUS <= 0 || st.Request.P99US < st.Request.P50US {
		t.Errorf("request digest: %+v", st.Request)
	}
	if st.Retries != 0 || st.RetryWait.Count != 0 {
		t.Errorf("unexpected retries: %+v", st)
	}
	if raw := c.reqLat.Snapshot(); raw.Count != st.Decides || raw.SumNS <= 0 {
		t.Errorf("raw request snapshot: %+v", raw)
	}
}
