package client

import (
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/wire"
)

// learnRepo learns a small Cassandra repository for client tests.
func learnRepo(t testing.TB, seed int64) *core.Repository {
	t.Helper()
	svc := services.NewCassandra()
	rng := rand.New(rand.NewSource(seed))
	prof, err := core.NewProfiler(svc, rng)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := core.NewScaleOutTuner(svc, svc.MaxAllocation().Type, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		t.Fatal(err)
	}
	var workloads []services.Workload
	for c := 100.0; c <= 460; c += 30 {
		workloads = append(workloads, services.Workload{Clients: c, Mix: svc.DefaultMix()})
	}
	repo, _, err := core.Learn(core.LearnConfig{
		Profiler: prof, Tuner: tuner, Workloads: workloads, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// foreseen profiles a signature the repository recognizes.
func foreseen(t testing.TB, repo *core.Repository, seed int64, clients float64) []float64 {
	t.Helper()
	svc := services.NewCassandra()
	prof, err := core.NewProfiler(svc, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := prof.Profile(services.Workload{Clients: clients, Mix: svc.DefaultMix()}, repo.EventsRef())
	if err != nil {
		t.Fatal(err)
	}
	return sig.Values
}

// startDaemon serves a repository under the template name on a real
// loopback listener, returning the daemon address.
func startDaemon(t testing.TB, templates map[string]*core.Repository, cfg server.Config) (string, *server.Server) {
	t.Helper()
	cfg.Templates = map[string]*core.Handle{}
	for name, repo := range templates {
		h, err := core.NewHandle(repo)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Templates[name] = h
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), s
}

func newClient(t testing.TB, addr string, enc wire.Encoding) *Client {
	t.Helper()
	c, err := New(Config{Addr: addr, Encoding: enc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestClientEndToEnd drives every client call against a live daemon
// under both spellings of the one encoding tag (unset and
// EncodingBinary): lookups (single and batched), classify, put/get,
// install, stats, templates, snapshotless admin errors.
func TestClientEndToEnd(t *testing.T) {
	repo := learnRepo(t, 61)
	addr, _ := startDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})
	vals := foreseen(t, repo, 62, 300)

	for _, enc := range []wire.Encoding{0, wire.EncodingBinary} {
		c := newClient(t, addr, enc)
		src, err := c.Source("cassandra", repo.EventsRef())
		if err != nil {
			t.Fatal(err)
		}
		if len(src.Events()) != len(repo.EventsRef()) {
			t.Fatal("events mismatch")
		}

		// Single lookup: the learned bucket-0 entry must hit.
		sig := &core.Signature{Events: repo.EventsRef(), Values: vals}
		res, err := src.Lookup(sig, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hit || res.Unforeseen || res.Allocation.Count <= 0 {
			t.Fatalf("enc %v: lookup: %+v", enc, res)
		}
		// And it matches the in-process decision bit for bit.
		direct, err := repo.Lookup(sig, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != direct.Class || res.Certainty != direct.Certainty ||
			res.Hit != direct.Hit || res.Allocation != direct.Allocation {
			t.Fatalf("enc %v: remote %+v != in-process %+v", enc, res, direct)
		}

		// Batched decide.
		var req wire.Request
		var resp wire.Response
		req.SetTemplate("cassandra")
		for i := 0; i < 8; i++ {
			req.AppendRow(vals)
		}
		if err := c.Decide(true, &req, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 8 || !resp.Results[7].Hit {
			t.Fatalf("enc %v: batch: %+v", enc, resp)
		}
		req.Reset()
		req.SetTemplate("cassandra")
		req.AppendRow(vals)
		if err := c.Decide(false, &req, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Lookup || resp.Results[0].Hit {
			t.Fatalf("enc %v: classify leaked lookup fields: %+v", enc, resp)
		}

		// Put → Get round trip.
		if err := src.Put(0, 5, cloud.Allocation{Type: cloud.XLarge, Count: 3}); err != nil {
			t.Fatal(err)
		}
		alloc, ok, err := src.Get(0, 5)
		if err != nil || !ok || alloc.Count != 3 || alloc.Type.Name != "xlarge" {
			t.Fatalf("enc %v: get: %+v %v %v", enc, alloc, ok, err)
		}
		if _, ok, err := src.Get(0, 15); err != nil || ok {
			t.Fatalf("enc %v: get miss: %v %v", enc, ok, err)
		}
	}

	if _, err := New(Config{Addr: addr, Encoding: 2}); err == nil || !strings.Contains(err.Error(), "Encoding") {
		t.Fatalf("New with an unknown encoding tag: %v", err)
	}
	c := newClient(t, addr, wire.EncodingBinary)

	// Stats and templates.
	st, err := c.Stats("cassandra")
	if err != nil {
		t.Fatal(err)
	}
	if st.Template != "cassandra" || st.Decisions == 0 || st.Classes < 2 {
		t.Fatalf("stats: %+v", st)
	}
	infos, err := c.Templates()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Template != "cassandra" || len(infos[0].Events) == 0 {
		t.Fatalf("templates: %+v", infos)
	}

	// Install a second template, then source it with fetched events.
	repo2 := learnRepo(t, 63)
	v, err := c.Install("cassandra-b", repo2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("install version %d, want 1", v)
	}
	src2, err := c.Source("cassandra-b", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := src2.Lookup(&core.Signature{Events: repo2.EventsRef(), Values: foreseen(t, repo2, 64, 300)}, 0)
	if err != nil || !res.Hit {
		t.Fatalf("installed template lookup: %+v %v", res, err)
	}
	if _, err := c.Source("missing", nil); err == nil {
		t.Fatal("sourcing an unknown template must fail")
	}

	// API errors surface status and body, and are not retried.
	before := c.retried.Load()
	var req wire.Request
	var resp wire.Response
	req.SetTemplate("nope")
	req.AppendRow(vals)
	err = c.Decide(true, &req, &resp)
	apiErr, ok := err.(*wire.APIError)
	if !ok || apiErr.Status != 400 || !strings.Contains(apiErr.Body, "nope") {
		t.Fatalf("unknown template error: %v", err)
	}
	if c.retried.Load() != before {
		t.Error("HTTP-level error must not be retried")
	}
}

// TestClientRetryBackoff pins the transport retry: a flaky listener
// that kills the first connection attempt mid-request is retried on a
// fresh connection and the call succeeds.
func TestClientRetryBackoff(t *testing.T) {
	repo := learnRepo(t, 65)
	addr, _ := startDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})

	// A proxy listener that severs the first N connections on first
	// read, then pipes transparently.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	kills := 2
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			kill := kills > 0
			if kill {
				kills--
			}
			mu.Unlock()
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 4096)
				n, err := conn.Read(buf)
				if err != nil {
					return
				}
				if kill {
					return // sever after the request starts
				}
				up, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer up.Close()
				// Replay what we read, then pipe both ways.
				if _, err := up.Write(buf[:n]); err != nil {
					return
				}
				done := make(chan struct{}, 2)
				go func() { _, _ = copyConn(up, conn); done <- struct{}{} }()
				go func() { _, _ = copyConn(conn, up); done <- struct{}{} }()
				<-done
				<-done
			}(conn)
		}
	}()

	c, err := New(Config{Addr: ln.Addr().String(), Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src, err := c.Source("cassandra", repo.EventsRef())
	if err != nil {
		t.Fatal(err)
	}
	vals := foreseen(t, repo, 66, 300)
	res, err := src.Lookup(&core.Signature{Events: repo.EventsRef(), Values: vals}, 0)
	if err != nil {
		t.Fatalf("lookup through flaky transport: %v", err)
	}
	if !res.Hit {
		t.Fatalf("lookup: %+v", res)
	}
	if c.retried.Load() == 0 {
		t.Error("expected at least one transport retry")
	}
}

func copyConn(dst, src net.Conn) (int64, error) {
	buf := make([]byte, 32<<10)
	var total int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
		}
		if err != nil {
			return total, err
		}
	}
}

// TestClientLookupRows pins the batch capability: rows sharing a
// bucket travel as one frame, every row gets its own correct decision
// in order, and buckets never mix.
func TestClientLookupRows(t *testing.T) {
	repo := learnRepo(t, 67)
	addr, srv := startDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})
	c, err := New(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src, err := c.Source("cassandra", repo.EventsRef())
	if err != nil {
		t.Fatal(err)
	}

	// Seed a bucket-2 entry so bucket routing is observable.
	if err := src.Put(0, 2, cloud.Allocation{Type: cloud.Large, Count: 9}); err != nil {
		t.Fatal(err)
	}

	const rows = 24
	batch := make([][]float64, rows)
	want := make([]core.LookupResult, rows)
	for i := range batch {
		batch[i] = foreseen(t, repo, int64(68+i), 100+25*float64(i))
		want[i], err = repo.Lookup(&core.Signature{Events: repo.EventsRef(), Values: batch[i]}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	got := make([]core.LookupResult, rows)
	if err := src.LookupRows(0, batch, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d (bucket 0): %+v != %+v", i, got[i], want[i])
		}
	}
	if err := src.LookupRows(2, batch, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Class != want[i].Class {
			t.Fatalf("row %d (bucket 2): class %d, want %d", i, got[i].Class, want[i].Class)
		}
		if got[i].Class == 0 && (!got[i].Hit || got[i].Allocation.Count != 9) {
			t.Fatalf("row %d (bucket 2): %+v, want the seeded bucket-2 entry", i, got[i])
		}
	}

	st := srv.StatsSnapshot()
	if st.LookupReqs != 2 {
		t.Errorf("%d wire requests for 2 batches", st.LookupReqs)
	}
	if st.Decisions != 2*rows { // the comparison lookups were in-process
		t.Errorf("decisions %d, want %d", st.Decisions, 2*rows)
	}

	// A row of the wrong width fails the batch before it leaves.
	wide := append(append([]float64(nil), batch[0]...), 1)
	if err := src.LookupRows(0, [][]float64{batch[0], wide}, got); err == nil {
		t.Error("ragged batch was sent")
	}
}

// TestLookupRowsTruncatedResponse: a daemon answering a 2-row batch
// with 1 result must fail the batch — nothing indexes past the short
// reply.
func TestLookupRowsTruncatedResponse(t *testing.T) {
	resp := wire.Response{Version: 3, Lookup: true, Results: []wire.Decision{{Class: 1, Certainty: 0.9, Hit: true, Type: 2, Count: 4}}}
	frame := resp.AppendBinary(nil)
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", wire.ContentTypeBinary, len(frame))
	c, err := New(Config{Addr: cannedServer(t, append([]byte(head), frame...))})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src, err := c.Source("cassandra", []metrics.Event{"ev0", "ev1", "ev2"})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.LookupResult, 2)
	err = src.LookupRows(0, [][]float64{{1, 2, 3}, {4, 5, 6}}, out)
	if err == nil || !strings.Contains(err.Error(), "results") {
		t.Errorf("truncated batch reply: err %v, want a result-count error", err)
	}
}
