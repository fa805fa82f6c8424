package proxy

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/wire"
)

// learnFrontRepo learns a small Cassandra repository.
func learnFrontRepo(t testing.TB, seed int64) *core.Repository {
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
	repo, _, err := core.Learn(core.LearnConfig{Profiler: prof, Tuner: tuner, Workloads: workloads, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// startDejavud serves repo under "cassandra" on a loopback listener.
func startDejavud(t testing.TB, repo *core.Repository) (string, *server.Server) {
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
	return strings.TrimPrefix(ts.URL, "http://"), s
}

// TestDecisionFront pins the decision-layer proxy: replies match
// direct daemon answers decision for decision, and sampled batches
// are mirrored to the clone with replies dropped.
func TestDecisionFront(t *testing.T) {
	repo := learnFrontRepo(t, 71)
	prodAddr, prodSrv := startDejavud(t, repo)
	cloneAddr, cloneSrv := startDejavud(t, learnFrontRepo(t, 71))

	up, err := client.New(client.Config{Addr: prodAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	cl, err := client.New(client.Config{Addr: cloneAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	front, err := NewDecisionFront(DecisionFrontConfig{Upstream: up, Clone: cl, SampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	// A foreseen signature for the learned repository.
	svc := services.NewCassandra()
	prof, err := core.NewProfiler(svc, rand.New(rand.NewSource(72)))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := prof.Profile(services.Workload{Clients: 300, Mix: svc.DefaultMix()}, repo.EventsRef())
	if err != nil {
		t.Fatal(err)
	}

	var req wire.Request
	req.SetTemplate("cassandra")
	req.AppendRow(sig.Values)
	req.AppendRow(sig.Values)

	// Direct daemon answer for comparison.
	var direct wire.Response
	if err := up.Decide(true, &req, &direct); err != nil {
		t.Fatal(err)
	}

	payload, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 6
	for i := 0; i < batches; i++ {
		resp, err := http.Post(fts.URL+"/v1/lookup", wire.ContentTypeBinary, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("front lookup: %d %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeBinary {
			t.Fatalf("front answered with Content-Type %q", ct)
		}
		var got wire.Response
		if err := got.DecodeBinary(body); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != 2 {
			t.Fatalf("front results: %+v", got)
		}
		for j := range got.Results {
			if got.Results[j] != direct.Results[j] {
				t.Fatalf("front decision %d diverged: %+v != %+v", j, got.Results[j], direct.Results[j])
			}
		}
	}

	// Unknown upstream template errors surface with the daemon's
	// status, untranslated.
	var bad wire.Request
	bad.SetTemplate("nope")
	bad.AppendRow(sig.Values)
	if payload, err = bad.AppendBinary(nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fts.URL+"/v1/lookup", wire.ContentTypeBinary, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown template through front: %d", resp.StatusCode)
	}

	// Drain the mirror queue, then check the clone saw half the
	// batches and production saw all of them. Batches 1, 3, 5 mirror
	// cleanly; batch 7 (the unknown-template probe) lands on the
	// sampling stride too and must fail on the clone without
	// affecting production's answer.
	front.Close()
	st := front.Stats()
	if st.Batches != batches+1 || st.Decisions != 2*batches {
		t.Errorf("front stats: %+v", st)
	}
	if st.Mirrored != 3 || st.MirrorFails != 1 {
		t.Errorf("mirror stats: %+v", st)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cloneSrv.StatsSnapshot().LookupReqs < st.Mirrored && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := cloneSrv.StatsSnapshot().LookupReqs; got < 2 {
		t.Errorf("clone daemon saw %d mirrored lookups, want >= 2", got)
	}
	if got := prodSrv.StatsSnapshot().LookupReqs; got < batches {
		t.Errorf("production daemon saw %d lookups, want >= %d", got, batches)
	}
}

// TestDecisionFrontContentTypeGuard pins the front's half of the
// one-encoding contract, identical to dejavud's: any Content-Type but
// application/x-dejavu-batch is answered 415 with a JSON error body
// naming the accepted type, counts as an error, and never reaches the
// upstream or the mirror.
func TestDecisionFrontContentTypeGuard(t *testing.T) {
	repo := learnFrontRepo(t, 71)
	prodAddr, prodSrv := startDejavud(t, repo)
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

	var req wire.Request
	req.SetTemplate("cassandra")
	req.AppendRow(make([]float64, len(repo.EventsRef())))
	good, err := req.AppendBinary(nil)
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
		{"application/json", []byte(`{"template":"cassandra","signature":[1,2,3]}`), http.StatusUnsupportedMediaType},
		{"application/json", good, http.StatusUnsupportedMediaType},
		{"", good, http.StatusUnsupportedMediaType},
		{"text/plain", good, http.StatusUnsupportedMediaType},
	} {
		for _, path := range []string{"/v1/classify", "/v1/lookup"} {
			before := front.Stats()
			hreq, err := http.NewRequest(http.MethodPost, fts.URL+path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				hreq.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s with Content-Type %q: %d %s, want %d", path, tc.contentType, resp.StatusCode, body, tc.want)
				continue
			}
			after := front.Stats()
			if tc.want == http.StatusOK {
				if after.Errors != before.Errors {
					t.Errorf("%s with Content-Type %q counted as an error", path, tc.contentType)
				}
				continue
			}
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &doc); err != nil || !strings.Contains(doc.Error, wire.ContentTypeBinary) {
				t.Errorf("415 body %q does not name the accepted type (%v)", body, err)
			}
			if after.Errors != before.Errors+1 || after.Batches != before.Batches {
				t.Errorf("%s with Content-Type %q: stats %+v -> %+v, want one error and no batch", path, tc.contentType, before, after)
			}
		}
	}
	if st := prodSrv.StatsSnapshot(); st.BadRequests != 0 {
		t.Errorf("rejected requests reached the upstream: %+v", st)
	}
}

// TestDecisionFrontZeroWidthMirror is the regression test for the
// mirror wedge: a zero-width batch must never be handed to drainMirror
// — whose row-reassembly loop advances by the row width and would spin
// forever on zero, wedging the mirror goroutine for the life of the
// front. A crafted zero-width frame is refused by the decoder before
// the sampler sees it, and one that reaches the sampler anyway is
// counted as a mirror drop at enqueue.
func TestDecisionFrontZeroWidthMirror(t *testing.T) {
	repo := learnFrontRepo(t, 71)
	prodAddr, _ := startDejavud(t, repo)
	cloneAddr, _ := startDejavud(t, learnFrontRepo(t, 71))
	up, err := client.New(client.Config{Addr: prodAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	cl, err := client.New(client.Config{Addr: cloneAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	front, err := NewDecisionFront(DecisionFrontConfig{Upstream: up, Clone: cl, SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	// Two zero-width rows are rectangular, so the encoder emits the
	// frame (rows=2, width=0).
	var crafted wire.Request
	crafted.SetTemplate("cassandra")
	crafted.AppendRow(nil)
	crafted.AppendRow(nil)
	payload, err := crafted.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fts.URL+"/v1/lookup", wire.ContentTypeBinary, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero-width batch answered %d, want 400", resp.StatusCode)
	}
	if st := front.Stats(); st.Batches != 0 || st.Mirrored != 0 {
		t.Fatalf("zero-width frame got past the decoder: %+v", st)
	}
	front.mirror(&crafted, true)
	if st := front.Stats(); st.MirrorDrops != 1 {
		t.Fatalf("zero-width batch not dropped at mirror enqueue: %+v", st)
	}

	// The drain goroutine must still be alive: a valid batch mirrors
	// through promptly.
	svc := services.NewCassandra()
	prof, err := core.NewProfiler(svc, rand.New(rand.NewSource(72)))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := prof.Profile(services.Workload{Clients: 300, Mix: svc.DefaultMix()}, repo.EventsRef())
	if err != nil {
		t.Fatal(err)
	}
	var req wire.Request
	req.SetTemplate("cassandra")
	req.AppendRow(sig.Values)
	if payload, err = req.AppendBinary(nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(fts.URL+"/v1/lookup", wire.ContentTypeBinary, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch after crafted one: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for front.Stats().Mirrored == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := front.Stats(); st.Mirrored != 1 {
		t.Errorf("mirror goroutine wedged after zero-width batch: %+v", st)
	}
}
