package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/wire"
)

// frontSignature profiles one foreseen signature for repo.
func frontSignature(t testing.TB, repo *core.Repository, seed int64) []float64 {
	t.Helper()
	svc := services.NewCassandra()
	prof, err := core.NewProfiler(svc, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := prof.Profile(services.Workload{Clients: 300, Mix: svc.DefaultMix()}, repo.EventsRef())
	if err != nil {
		t.Fatal(err)
	}
	return sig.Values
}

// startDejavudTCP serves repo under "cassandra" on both planes:
// loopback HTTP (admin + decisions) and a raw-TCP decision listener.
func startDejavudTCP(t testing.TB, repo *core.Repository) (httpAddr, tcpAddr string) {
	t.Helper()
	h, err := core.NewHandle(repo)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Templates: map[string]*core.Handle{"cassandra": h}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpSrv := server.NewTCP(s, server.TCPConfig{})
	go func() { _ = tcpSrv.Serve(ln) }()
	t.Cleanup(func() { tcpSrv.Close() })
	return strings.TrimPrefix(ts.URL, "http://"), ln.Addr().String()
}

// TestDecisionFrontMetrics pins the front's /metrics plane: the
// Prometheus exposition carries the front counters with the values
// Stats() reports and a decide-latency histogram that recorded every
// batch. (The strict text-format linter lives in internal/server; this
// checks the front's numbers.)
func TestDecisionFrontMetrics(t *testing.T) {
	repo := learnFrontRepo(t, 71)
	prodAddr, _ := startDejavud(t, repo)
	up, err := client.New(client.Config{Addr: prodAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	front, err := NewDecisionFront(DecisionFrontConfig{Upstream: up})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	vals := frontSignature(t, repo, 72)
	var req wire.Request
	req.SetTemplate("cassandra")
	req.AppendRow(vals)
	req.AppendRow(vals)
	payload, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 4
	for i := 0; i < batches; i++ {
		resp, err := http.Post(fts.URL+"/v1/lookup", wire.ContentTypeBinary, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		fmt.Sprintf("dejavu_front_batches_total %d\n", batches),
		fmt.Sprintf("dejavu_front_decisions_total %d\n", 2*batches),
		"dejavu_front_errors_total 0\n",
		"# TYPE dejavu_front_decide_latency_seconds histogram\n",
		fmt.Sprintf("dejavu_front_decide_latency_seconds_count %d\n", batches),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "dejavu_replica_probe_rtt_seconds") {
		t.Error("single-upstream front must not export replica tier metrics")
	}
	if snap := front.DecideLatency(); snap.Count != batches || snap.SumNS <= 0 {
		t.Errorf("decide latency snapshot: %+v", snap)
	}

	// POST is not a scrape.
	post, err := http.Post(fts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics answered %d", post.StatusCode)
	}
}

// TestTraceStitchedAcrossTiers: one decision that a caller traces
// under its own context, sent through the client, the decision front,
// the replica registry, and a dejavud replica — with the
// registry→replica hop riding the raw-TCP trace envelope — leaves a
// parent-linked span chain caller → front → registry → dejavud, each
// hop retrievable from its process's /v1/trace surface.
func TestTraceStitchedAcrossTiers(t *testing.T) {
	repo := learnFrontRepo(t, 71)
	httpA, tcpA := startDejavudTCP(t, repo)
	httpB, tcpB := startDejavudTCP(t, repo)

	reg, err := replica.New(replica.Config{
		Replicas: []replica.Spec{
			{Name: "a", Addr: httpA, TCPAddr: tcpA},
			{Name: "b", Addr: httpB, TCPAddr: tcpB},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	front, err := NewDecisionFront(DecisionFrontConfig{Replicas: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	cl, err := client.New(client.Config{Addr: strings.TrimPrefix(fts.URL, "http://")})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	vals := frontSignature(t, repo, 72)
	var req wire.Request
	req.SetTemplate("cassandra")
	req.AppendRow(vals)
	var resp wire.Response
	// The caller's own root: the context it traces the decision under,
	// and when it started.
	tc := obs.TraceContext{Trace: obs.NextID(), Span: obs.NextID()}
	callerStart := time.Now().UnixNano()
	if err := cl.DecideTraced(true, &req, &resp, tc); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results: %+v", resp.Results)
	}
	trace := obs.HexID(tc.Trace)

	// Front ring: the front hop and (same ring) the registry hop.
	byComponent := map[string]obs.Span{}
	for _, sp := range front.plane.Spans.Spans() {
		if sp.Trace == trace {
			byComponent[sp.Component] = sp
		}
	}
	frontSpan, ok := byComponent["front"]
	if !ok {
		t.Fatalf("front ring has no front span for trace %v: %+v", trace, byComponent)
	}
	regSpan, ok := byComponent["registry"]
	if !ok {
		t.Fatalf("front ring has no registry span for trace %v", trace)
	}
	if frontSpan.Parent != obs.HexID(tc.Span) {
		t.Errorf("front span parent %v, want the caller's span %v", frontSpan.Parent, obs.HexID(tc.Span))
	}
	if regSpan.Parent != frontSpan.ID {
		t.Errorf("registry span parent %v, want front span %v", regSpan.Parent, frontSpan.ID)
	}

	// Replica hop: whichever daemon served it recorded the leaf span —
	// carried there inside a StreamFlagTrace TCP envelope — and its
	// /v1/trace serves it.
	var leaf *obs.Span
	for _, addr := range []string{httpA, httpB} {
		for _, sp := range traceDoc(t, "http://"+addr).Spans {
			if sp.Trace == trace {
				sp := sp
				leaf = &sp
			}
		}
	}
	if leaf == nil {
		t.Fatal("no dejavud replica recorded the traced decision")
	}
	if leaf.Component != "dejavud" || leaf.Op != "lookup" {
		t.Errorf("leaf span: %+v", leaf)
	}
	if leaf.Parent != regSpan.ID {
		t.Errorf("leaf parent %v, want registry span %v", leaf.Parent, regSpan.ID)
	}

	// The front's /v1/trace endpoint serves the same chain.
	doc := traceDoc(t, fts.URL)
	if doc.Component != "front" || doc.Total < 2 {
		t.Errorf("front trace doc: component %q total %d", doc.Component, doc.Total)
	}
	found := 0
	for _, sp := range doc.Spans {
		if sp.Trace == trace {
			found++
		}
	}
	if found != 2 {
		t.Errorf("front /v1/trace carries %d spans of the trace, want 2", found)
	}

	// Spans measure real time: every hop's duration is positive and no
	// hop started before its parent, the caller first.
	for _, sp := range []obs.Span{frontSpan, regSpan, *leaf} {
		if sp.DurationNS <= 0 {
			t.Errorf("%s span has non-positive duration %d", sp.Component, sp.DurationNS)
		}
	}
	if frontSpan.Start < callerStart || regSpan.Start < frontSpan.Start || leaf.Start < regSpan.Start {
		t.Errorf("span starts out of order: caller %d front %d registry %d dejavud %d",
			callerStart, frontSpan.Start, regSpan.Start, leaf.Start)
	}
}

// traceDoc fetches a process's span ring from its /v1/trace.
func traceDoc(t *testing.T, url string) obs.TraceDoc {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}
