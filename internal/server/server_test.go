package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/wire"
)

// testRepository learns a small Cassandra repository for server tests.
func testRepository(t testing.TB, seed int64) *core.Repository {
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
		Profiler:  prof,
		Tuner:     tuner,
		Workloads: workloads,
		Rng:       rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// foreseenSignature profiles a signature the repository should
// recognize, returning its values.
func foreseenSignature(t testing.TB, repo *core.Repository, seed int64, clients float64) []float64 {
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

func newTestServer(t testing.TB, repo *core.Repository, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	h, err := core.NewHandle(repo)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Handle = h
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t testing.TB, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// batch builds a decision request.
func batch(template string, bucket int, rows ...[]float64) *wire.Request {
	var req wire.Request
	req.SetTemplate(template)
	req.Bucket = bucket
	for _, row := range rows {
		req.AppendRow(row)
	}
	return &req
}

// decision posts a binary batch to a decision endpoint, returning the
// status, the raw body, and (on 200) the decoded response.
func decision(t testing.TB, url, template string, bucket int, rows ...[]float64) (int, string, wire.Response) {
	t.Helper()
	code, body := postBinary(t, url, batch(template, bucket, rows...))
	var out wire.Response
	if code == http.StatusOK {
		if err := out.DecodeBinary(body); err != nil {
			t.Fatalf("decision response: %v", err)
		}
	}
	return code, string(body), out
}

func TestServeClassifyAndLookup(t *testing.T) {
	repo := testRepository(t, 1)
	_, ts := newTestServer(t, repo, Config{})
	vals := foreseenSignature(t, repo, 2, 300)

	code, body, cr := decision(t, ts.URL+"/v1/classify", "", 0, vals)
	if code != http.StatusOK {
		t.Fatalf("classify: %d %s", code, body)
	}
	if cr.Version != 1 || cr.Lookup || len(cr.Results) != 1 {
		t.Fatalf("classify response: %+v", cr)
	}
	if cr.Results[0].Unforeseen || cr.Results[0].Class < 0 {
		t.Errorf("foreseen signature misclassified: %+v", cr.Results[0])
	}

	// Batched lookup on bucket 0 must hit: learning populated it.
	code, body, lr := decision(t, ts.URL+"/v1/lookup", "", 0, vals, vals)
	if code != http.StatusOK {
		t.Fatalf("lookup: %d %s", code, body)
	}
	if !lr.Lookup || len(lr.Results) != 2 {
		t.Fatalf("lookup results: %+v", lr)
	}
	for i, r := range lr.Results {
		if !r.Hit || r.Type == 0 || r.Count <= 0 {
			t.Errorf("result %d should be a populated hit: %+v", i, r)
		}
	}

	// An absurd signature is unforeseen and cannot hit.
	far := make([]float64, len(vals))
	for i := range far {
		far[i] = 1e9
	}
	code, body, fr := decision(t, ts.URL+"/v1/lookup", "", 0, far)
	if code != http.StatusOK {
		t.Fatalf("unforeseen lookup: %d %s", code, body)
	}
	if r := fr.Results[0]; !r.Unforeseen || r.Class != -1 || r.Hit {
		t.Errorf("unforeseen lookup response: %+v", r)
	}
}

// TestDecisionContentTypeGuard pins the one-encoding contract on the
// HTTP plane: the Content-Type is a guard, not a negotiation. Anything
// but application/x-dejavu-batch (parameters allowed) is answered 415
// with a JSON error body naming the accepted type, and counts as a bad
// request — including a well-formed binary frame under the wrong label.
func TestDecisionContentTypeGuard(t *testing.T) {
	repo := testRepository(t, 1)
	s, ts := newTestServer(t, repo, Config{})
	good, err := batch("", 0, foreseenSignature(t, repo, 2, 300)).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		contentType string
		body        []byte
		want        int
	}{
		{wire.ContentTypeBinary, good, http.StatusOK},
		{wire.ContentTypeBinary + "; v=1", good, http.StatusOK},
		{"application/json", []byte(`{"signature":[1,2,3]}`), http.StatusUnsupportedMediaType},
		{"application/json", good, http.StatusUnsupportedMediaType},
		{"", good, http.StatusUnsupportedMediaType},
		{"application/x-www-form-urlencoded", good, http.StatusUnsupportedMediaType},
		{wire.ContentTypeBinary + "2", good, http.StatusUnsupportedMediaType},
	} {
		for _, path := range []string{"/v1/classify", "/v1/lookup"} {
			before := s.StatsSnapshot().BadRequests
			req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s with Content-Type %q: %d %s, want %d", path, tc.contentType, resp.StatusCode, body, tc.want)
				continue
			}
			rejected := s.StatsSnapshot().BadRequests - before
			if tc.want == http.StatusOK {
				if rejected != 0 {
					t.Errorf("%s with Content-Type %q counted as a bad request", path, tc.contentType)
				}
				continue
			}
			var doc struct {
				Error string `json:"error"`
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("415 Content-Type %q: error bodies are JSON", ct)
			}
			if err := json.Unmarshal(body, &doc); err != nil || !strings.Contains(doc.Error, wire.ContentTypeBinary) {
				t.Errorf("415 body %q does not name the accepted type (%v)", body, err)
			}
			if rejected != 1 {
				t.Errorf("%s with Content-Type %q: bad_requests moved by %d, want 1", path, tc.contentType, rejected)
			}
		}
	}
}

func TestServePutStatsMetricsAndErrors(t *testing.T) {
	repo := testRepository(t, 3)
	s, ts := newTestServer(t, repo, Config{})
	vals := foreseenSignature(t, repo, 4, 300)

	// Put a bucket-3 entry, then look it up.
	code, body := post(t, ts.URL+"/v1/put", `{"class":0,"bucket":3,"type":"large","count":6}`)
	if code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	if _, ok := repo.Get(0, 3); !ok {
		t.Fatal("put entry not visible in repository")
	}

	// Stats reflect traffic.
	decision(t, ts.URL+"/v1/classify", "", 0, vals)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st wire.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Version != 1 || st.Decisions < 1 || st.ClassifyReqs < 1 || st.PutReqs != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.Entries != repo.Len() || st.Classes != repo.Classes() {
		t.Errorf("stats repo shape: %+v", st)
	}

	// Prometheus text format.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE dejavud_decisions_total counter",
		"dejavud_repo_version 1",
		"dejavud_put_requests_total 1",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics output missing %q:\n%s", want, mb)
		}
	}

	// Error paths.
	if code, _ := post(t, ts.URL+"/v1/put", `{"class":0,"bucket":0,"type":"petabyte","count":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown type: %d", code)
	}
	if resp, err := http.Post(ts.URL+"/v1/classify", wire.ContentTypeBinary, strings.NewReader(`{"oops":true}`)); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("not a frame: %d", resp.StatusCode)
	}
	if code, _, _ := decision(t, ts.URL+"/v1/classify", "", 0, []float64{1, 2}); code != http.StatusBadRequest {
		t.Errorf("width mismatch: %d", code)
	}
	resp, err = http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET classify: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("405 Content-Type %q: error bodies are JSON on every endpoint", ct)
	}

	// A rejected batch must not feed the drift monitor or the relearn
	// corpus.
	preDecisions := s.StatsSnapshot().Decisions
	preRows := s.StatsSnapshot().RecentRows
	if code, _, _ := decision(t, ts.URL+"/v1/lookup", "", 0, []float64{1, 2, 3}, []float64{4, 5, 6}); code != http.StatusBadRequest {
		t.Errorf("width-mismatched batch: %d", code)
	}
	if st := s.StatsSnapshot(); st.Decisions != preDecisions || st.RecentRows != preRows {
		t.Errorf("rejected batch fed the drift state: decisions %d->%d, rows %d->%d",
			preDecisions, st.Decisions, preRows, st.RecentRows)
	}
	if code, _ := post(t, ts.URL+"/v1/snapshot", ``); code != http.StatusBadRequest {
		t.Errorf("snapshot without path: %d", code)
	}
	if st := s.StatsSnapshot(); st.BadRequests < 4 {
		t.Errorf("bad requests not counted: %+v", st)
	}
}

// boolCount is the unforeseen count of a one-row batch.
func boolCount(unforeseen bool) int64 {
	if unforeseen {
		return 1
	}
	return 0
}

// observeRow feeds the ring one row as a batch of one.
func observeRow(r *signatureRing, vals []float64, unforeseen bool) {
	var req wire.Request
	req.AppendRow(vals)
	r.observeBatch(&req, []wire.Decision{{Unforeseen: unforeseen}}, int(boolCount(unforeseen)))
}

func TestDriftMonitorWindows(t *testing.T) {
	d := newDriftMonitor(DriftConfig{Window: 10, Threshold: 0.5})
	// First window: 4/10 unforeseen — below threshold.
	for i := 0; i < 10; i++ {
		trig := d.observeBatch(1, boolCount(i < 4))
		if trig {
			t.Fatalf("decision %d: unexpected trigger", i)
		}
	}
	if got := d.LastWindowRate(); got != 0.4 {
		t.Errorf("window 1 rate %v, want 0.4", got)
	}
	// Second window: 6/10 — the closing decision triggers.
	var triggered bool
	for i := 0; i < 10; i++ {
		if d.observeBatch(1, boolCount(i < 6)) {
			if i != 9 {
				t.Errorf("trigger fired mid-window at %d", i)
			}
			triggered = true
		}
	}
	if !triggered {
		t.Error("over-threshold window should trigger")
	}
	if d.windows.Load() != 2 || d.triggers.Load() != 1 || d.decisions.Load() != 20 {
		t.Errorf("counters: windows=%d triggers=%d decisions=%d",
			d.windows.Load(), d.triggers.Load(), d.decisions.Load())
	}
}

func TestSignatureRing(t *testing.T) {
	r := newSignatureRing(4, 2, 3)
	// Unforeseen rows always record.
	for i := 0; i < 3; i++ {
		observeRow(r, []float64{float64(i), 1}, true)
	}
	if r.Len() != 3 {
		t.Fatalf("len %d, want 3", r.Len())
	}
	// Foreseen rows record every 3rd call.
	for i := 0; i < 6; i++ {
		observeRow(r, []float64{9, 9}, false)
	}
	if r.Len() != 4 { // capacity-bounded
		t.Fatalf("len %d, want 4 (capacity)", r.Len())
	}
	// Width-mismatched rows are ignored, not corrupting.
	observeRow(r, []float64{1, 2, 3}, true)
	for _, row := range r.snapshot() {
		if len(row) != 2 {
			t.Fatalf("snapshot row width %d", len(row))
		}
	}
	// Snapshot rows are copies.
	snap := r.snapshot()
	orig := snap[0][0]
	observeRow(r, []float64{777, 777}, true)
	observeRow(r, []float64{778, 778}, true)
	if snap[0][0] != orig {
		t.Error("snapshot aliases ring storage")
	}
}

// rowAtATime is the reference the batch accounting is held to: the
// drift monitor and the signature ring fed one decision at a time, in
// row order, the way decide() fed them before it batched.
type rowAtATime struct {
	window, stride              int64
	decisions, unforeseen, seen int64
	windows, triggers           int64
	lastRate, threshold         float64
	ring                        [][]float64
	capacity                    int
}

func (m *rowAtATime) observe(row []float64, unforeseen bool) {
	if unforeseen {
		m.unforeseen++
		m.ring = append(m.ring, row)
	} else if m.seen++; m.seen%m.stride == 0 {
		m.ring = append(m.ring, row)
	}
	if m.decisions++; m.decisions%m.window != 0 {
		return
	}
	m.lastRate = float64(m.unforeseen) / float64(m.window)
	m.unforeseen = 0
	m.windows++
	if m.lastRate >= m.threshold {
		m.triggers++
	}
}

// recorded returns the reference ring as the real one stores it: the
// last capacity rows, laid out by insertion index modulo capacity.
func (m *rowAtATime) recorded() [][]float64 {
	n := len(m.ring)
	if n > m.capacity {
		n = m.capacity
	}
	out := make([][]float64, n)
	for i := len(m.ring) - n; i < len(m.ring); i++ {
		out[i%m.capacity] = m.ring[i]
	}
	return out
}

// TestObserveBatchMatchesRowAtATime is the property test of the
// per-batch accounting: for random decision sequences cut into random
// batches, the ring holds exactly the rows the row-at-a-time order
// records, whatever the cut; and when no batch straddles a window
// boundary, windows, triggers and the last window's rate are identical
// too. For cuts that do straddle — including batches several windows
// long — the decision count is exact, a batch closes at most one
// window, and the rate stays in [0, 1].
func TestObserveBatchMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		cfg := DriftConfig{
			Window:    1 + rng.Intn(40),
			Threshold: 0.1 + 0.8*rng.Float64(),
		}
		capacity, stride := 1+rng.Intn(64), 1+rng.Intn(9)
		aligned := trial%2 == 0
		n := 1 + rng.Intn(400)
		pUnforeseen := rng.Float64()
		maxBatch := 1 + rng.Intn(3*cfg.Window)

		ref := &rowAtATime{window: int64(cfg.Window), stride: int64(stride),
			threshold: cfg.Threshold, capacity: capacity}
		d := newDriftMonitor(cfg)
		r := newSignatureRing(capacity, 2, stride)
		for done := 0; done < n; {
			size := 1 + rng.Intn(maxBatch)
			if size > n-done {
				size = n - done
			}
			if toBoundary := cfg.Window - done%cfg.Window; aligned && size > toBoundary {
				size = toBoundary
			}
			var req wire.Request
			results := make([]wire.Decision, size)
			unforeseen := 0
			for i := range results {
				row := []float64{float64(done + i), float64(trial)}
				req.AppendRow(row)
				results[i].Unforeseen = rng.Float64() < pUnforeseen
				if results[i].Unforeseen {
					unforeseen++
				}
				ref.observe(row, results[i].Unforeseen)
			}
			windowsBefore := d.windows.Load()
			r.observeBatch(&req, results, unforeseen)
			d.observeBatch(int64(size), int64(unforeseen))
			done += size
			if closed := d.windows.Load() - windowsBefore; closed > 1 {
				t.Fatalf("trial %d: one batch closed %d windows", trial, closed)
			}
			if rate := d.LastWindowRate(); rate < 0 || rate > 1 {
				t.Fatalf("trial %d: window rate %v outside [0, 1] (batch of %d, window %d)", trial, rate, size, cfg.Window)
			}
		}

		want := ref.recorded()
		if r.filled != len(want) {
			t.Fatalf("trial %d: ring holds %d rows, row-at-a-time order records %d", trial, r.filled, len(want))
		}
		for i, row := range want {
			if r.rows[i][0] != row[0] || r.rows[i][1] != row[1] {
				t.Fatalf("trial %d: ring slot %d = %v, want %v", trial, i, r.rows[i], row)
			}
		}
		if got := d.decisions.Load(); got != ref.decisions {
			t.Fatalf("trial %d: %d decisions counted, want %d", trial, got, ref.decisions)
		}
		if !aligned {
			if got := d.windows.Load(); got > ref.windows {
				t.Fatalf("trial %d: %d windows closed, more than the %d boundaries crossed", trial, got, ref.windows)
			}
			continue
		}
		if d.windows.Load() != ref.windows || d.triggers.Load() != ref.triggers ||
			math.Float64bits(d.LastWindowRate()) != math.Float64bits(ref.lastRate) {
			t.Fatalf("trial %d: windows=%d triggers=%d rate=%v, row-at-a-time gives windows=%d triggers=%d rate=%v",
				trial, d.windows.Load(), d.triggers.Load(), d.LastWindowRate(), ref.windows, ref.triggers, ref.lastRate)
		}
	}
}

// TestDriftMonitorBatchLargerThanWindow pins the clamp and the long
// window: a batch of several windows closes them as one, with the rate
// taken over all of them, and a straddling batch whose unforeseen rows
// outnumber the window reads 1, not more.
func TestDriftMonitorBatchLargerThanWindow(t *testing.T) {
	d := newDriftMonitor(DriftConfig{Window: 10, Threshold: 0.5})
	// 40 decisions, 12 unforeseen: 30 % — over one window's worth of
	// unforeseen rows, yet below the threshold.
	if d.observeBatch(40, 12) {
		t.Error("30% unforeseen over four windows triggered a 50% threshold")
	}
	if got := d.LastWindowRate(); got != 0.3 || d.windows.Load() != 1 {
		t.Errorf("rate %v over %d closes, want 0.3 over 1", got, d.windows.Load())
	}
	// 5 foreseen, then 14 unforeseen straddling the boundary at 50.
	d.observeBatch(5, 0)
	if !d.observeBatch(14, 14) {
		t.Error("a window of nothing but unforeseen rows did not trigger")
	}
	if got := d.LastWindowRate(); got != 1 {
		t.Errorf("straddling batch: rate %v, want clamped to 1", got)
	}
}
