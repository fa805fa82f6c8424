package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/wire"
)

// benchSetup builds a server plus a warmed scratch and request body
// for the decision path.
func benchSetup(b *testing.B, batch int) (*Server, *scratch) {
	repo := testRepository(b, 12)
	h, err := core.NewHandle(repo)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Handle: h})
	if err != nil {
		b.Fatal(err)
	}
	vals := foreseenSignature(b, repo, 13, 300)
	sc := s.pool.Get().(*scratch)
	sc.body = decisionBody(b, vals, batch)
	return s, sc
}

// decisionBody encodes a bucket-0 batch of identical signatures.
func decisionBody(tb testing.TB, vals []float64, batch int) []byte {
	tb.Helper()
	var req wire.Request
	for i := 0; i < batch; i++ {
		req.AppendRow(vals)
	}
	body, err := req.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecideZeroAlloc pins the ISSUE acceptance criterion: the
// steady-state batched decision path (parse → route → classify/lookup
// → encode) performs zero heap allocations per request.
func TestDecideZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector degrades sync.Pool caching and distorts allocation counts; the CI allocs job runs this gate without -race")
	}
	repo := testRepository(t, 12)
	h, err := core.NewHandle(repo)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Handle: h})
	if err != nil {
		t.Fatal(err)
	}
	vals := foreseenSignature(t, repo, 13, 300)
	sc := s.pool.Get().(*scratch)
	sc.body = decisionBody(t, vals, 4)
	for _, mode := range []struct {
		name   string
		lookup bool
	}{{"lookup", true}, {"classify", false}} {
		// Warm the scratch buffers, then measure.
		if _, err := s.decide(sc, mode.lookup, transportBinary); err != nil {
			t.Fatal(err)
		}
		decide := func() {
			if _, err := s.decide(sc, mode.lookup, transportBinary); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
			t.Errorf("%s decision path allocates %.1f times per batch, want 0", mode.name, allocs)
			t.Log(testkit.AllocSites(200, decide))
		}
	}
	// A full lockstep block's frame: 256 rows in one LookupRows pass.
	sc.body = decisionBody(t, vals, 256)
	if _, err := s.decide(sc, true, transportBinary); err != nil {
		t.Fatal(err)
	}
	decide := func() {
		if _, err := s.decide(sc, true, transportBinary); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
		t.Errorf("256-row lookup frame allocates %.1f times per batch, want 0", allocs)
		t.Log(testkit.AllocSites(200, decide))
	}
	s.pool.Put(sc)
}

// TestDecideZeroAllocInstrumented pins the observability PR's
// acceptance criterion explicitly: with the per-template ×
// per-transport latency histograms live (they always are), the decide
// path still allocates nothing on the HTTP-binary and TCP transport
// slots — and the histogram really did record every batch, so the
// zero can't be a dead instrumentation path.
func TestDecideZeroAllocInstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector degrades sync.Pool caching and distorts allocation counts; the CI allocs job runs this gate without -race")
	}
	repo := testRepository(t, 12)
	h, err := core.NewHandle(repo)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Handle: h})
	if err != nil {
		t.Fatal(err)
	}
	vals := foreseenSignature(t, repo, 13, 300)
	for _, tc := range []struct {
		name string
		tr   transport
	}{{"http-binary", transportBinary}, {"tcp", transportTCP}} {
		sc := s.pool.Get().(*scratch)
		sc.body = decisionBody(t, vals, 16)
		if _, err := s.decide(sc, true, tc.tr); err != nil {
			t.Fatal(err)
		}
		tpl := s.templates.Load().def
		before := tpl.lat[tc.tr].Snapshot().Count
		decide := func() {
			if _, err := s.decide(sc, true, tc.tr); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
			t.Errorf("%s instrumented decide allocates %.1f times per batch, want 0", tc.name, allocs)
			t.Log(testkit.AllocSites(200, decide))
		}
		after := tpl.lat[tc.tr].Snapshot()
		if got := after.Count - before; got < 200 {
			t.Errorf("%s histogram recorded %d batches during the pin, want >= 200", tc.name, got)
		}
		if after.SumNS <= 0 {
			t.Errorf("%s histogram sum not advancing", tc.name)
		}
		s.pool.Put(sc)
	}
}

// BenchmarkDecide measures the raw decision path (no HTTP): one op is
// one batched request. allocs/op must stay 0 (TestDecideZeroAlloc);
// end-to-end serving throughput is the system benchmark's
// serve_batch16 workload.
func BenchmarkDecide(b *testing.B) {
	for _, tc := range []struct {
		name   string
		batch  int
		lookup bool
	}{
		{"lookup-binary/batch1", 1, true},
		{"lookup-binary/batch16", 16, true},
		{"lookup-binary/batch64", 64, true},
		{"lookup-binary/batch256", 256, true},
		{"classify-binary/batch16", 16, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, sc := benchSetup(b, tc.batch)
			if _, err := s.decide(sc, tc.lookup, transportBinary); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.decide(sc, tc.lookup, transportBinary); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tc.batch)*float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
		})
	}
}

// BenchmarkServeHTTP measures the full HTTP round trip through the
// handler (httptest's in-process transport): net/http itself
// allocates per request, so this is a throughput reference, not an
// allocation gate.
func BenchmarkServeHTTP(b *testing.B) {
	repo := testRepository(b, 12)
	_, ts := newTestServer(b, repo, Config{})
	vals := foreseenSignature(b, repo, 13, 300)
	var req wire.Request
	for i := 0; i < 16; i++ {
		req.AppendRow(vals)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, resp := postBinary(b, ts.URL+"/v1/lookup", &req)
		if code != 200 {
			b.Fatalf("%d %s", code, resp)
		}
	}
	b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkTCPPipelined measures the TCP plane the way serve_batch16
// drives it: one connection keeping `depth` batched lookups in flight,
// one op per request. At depth 1 every request and every reply is its
// own write; at depth 8 both ends share writes under wire.Stream's
// flush-before-block policy. replies/flush reads the server's end off
// TCPStats, requests/write the caller's off a counting conn.
func BenchmarkTCPPipelined(b *testing.B) {
	for _, tc := range []struct {
		name         string
		batch, depth int
	}{
		{"batch16-depth1", 16, 1},
		{"batch16-depth8", 16, 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			repo := testRepository(b, 12)
			s, _ := newTestServer(b, repo, Config{})
			ts, addr := startTCP(b, s, TCPConfig{})
			frame := decisionBody(b, foreseenSignature(b, repo, 13, 300), tc.batch)
			nc, _ := dialStream(b, addr)
			cc := &countingConn{Conn: nc}
			st := wire.NewStream(cc) // the hello is done and nothing follows it unasked: cc counts requests only
			var resp wire.Response
			b.ReportAllocs()
			b.ResetTimer()
			for sent, done := 0, 0; done < b.N; done++ {
				for ; sent-done < tc.depth && sent < b.N; sent++ {
					if err := st.WriteEnvelope(uint32(sent), wire.StreamFlagLookup, frame); err != nil {
						b.Fatal(err)
					}
				}
				id, flags, payload, err := st.ReadEnvelope(1 << 20)
				if err != nil || id != uint32(done) || flags&wire.StreamFlagError != 0 {
					b.Fatalf("reply %d: id=%d flags=%d err=%v", done, id, flags, err)
				}
				if err := resp.DecodeBinary(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tc.batch)*float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
			if stats := ts.Stats(); stats.Flushes > 0 {
				b.ReportMetric(float64(stats.Envelopes)/float64(stats.Flushes), "replies/flush")
			}
			if writes := cc.writes.Load(); writes > 0 {
				b.ReportMetric(float64(b.N)/float64(writes), "requests/write")
			}
		})
	}
}
