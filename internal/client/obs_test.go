package client

import (
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestClientStatsSnapshot pins the client's local instrumentation:
// every Decide lands in the request-latency histogram, and a multi-row
// LookupRows counts as the one Decide it is — all surfaced through
// StatsSnapshot without touching the daemon.
func TestClientStatsSnapshot(t *testing.T) {
	repo := learnRepo(t, 61)
	addr, _ := startDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})
	vals := foreseen(t, repo, 62, 300)

	c, err := New(Config{Addr: addr, Encoding: wire.EncodingBinary})
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
