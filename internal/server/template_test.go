package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// postBinary sends one binary-encoded decision request.
func postBinary(t testing.TB, url string, req *wire.Request) (int, []byte) {
	t.Helper()
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, wire.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestMultiTemplateRouting serves two templates concurrently and pins
// that decisions route by the wire header's template id, with
// independent repository versions and stats.
func TestMultiTemplateRouting(t *testing.T) {
	repoA := testRepository(t, 21)
	repoB := testRepository(t, 22)
	hA, err := core.NewHandle(repoA)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := core.NewHandle(repoB)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Templates: map[string]*core.Handle{"alpha": hA, "beta": hB}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	vals := foreseenSignature(t, repoA, 23, 300)

	// Ambiguous: two templates, no template id.
	code, body, _ := decision(t, ts.URL+"/v1/lookup", "", 0, vals)
	if code != http.StatusBadRequest {
		t.Fatalf("untemplated request on a 2-template server: %d %s", code, body)
	}
	// Unknown template.
	code, _, _ = decision(t, ts.URL+"/v1/lookup", "gamma", 0, vals)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown template: %d", code)
	}
	// Routed requests land on their template.
	code, body, _ = decision(t, ts.URL+"/v1/lookup", "alpha", 0, vals)
	if code != http.StatusOK {
		t.Fatalf("alpha lookup: %d %s", code, body)
	}
	var req wire.Request
	req.SetTemplate("beta")
	req.AppendRow(vals)
	code, raw := postBinary(t, ts.URL+"/v1/lookup", &req)
	if code != http.StatusOK {
		t.Fatalf("beta binary lookup: %d %s", code, raw)
	}
	var resp wire.Response
	if err := resp.DecodeBinary(raw); err != nil {
		t.Fatalf("binary response: %v", err)
	}
	if len(resp.Results) != 1 || !resp.Lookup {
		t.Fatalf("binary response: %+v", resp)
	}

	// Per-template decision counters are independent.
	stA, err := s.StatsFor("alpha")
	if err != nil {
		t.Fatal(err)
	}
	stB, err := s.StatsFor("beta")
	if err != nil {
		t.Fatal(err)
	}
	if stA.Decisions != 1 || stB.Decisions != 1 {
		t.Errorf("decisions alpha=%d beta=%d, want 1 and 1", stA.Decisions, stB.Decisions)
	}
	if stA.Templates != 2 || stA.Template != "alpha" || stB.Template != "beta" {
		t.Errorf("stats identity: %+v / %+v", stA.TemplateStats, stB.TemplateStats)
	}

	// The templates listing names both with their signature events.
	resp2, err := http.Get(ts.URL + "/v1/templates")
	if err != nil {
		t.Fatal(err)
	}
	var infos []wire.TemplateInfo
	if err := json.NewDecoder(resp2.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(infos) != 2 || infos[0].Template != "alpha" || infos[1].Template != "beta" {
		t.Fatalf("templates listing: %+v", infos)
	}
	if len(infos[0].Events) == 0 || infos[0].Classes < 2 {
		t.Errorf("listing lacks repository shape: %+v", infos[0])
	}

	// Multi-template metrics are labeled per template.
	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	for _, want := range []string{
		"dejavud_templates 2",
		`dejavud_decisions_total{template="alpha"} 1`,
		`dejavud_decisions_total{template="beta"} 1`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestInstallAndGet pins the remote control plane's flow: POST
// /v1/install publishes a serialized repository under a new template
// id, decisions route to it immediately, /v1/get fetches entries by
// (class, bucket), and re-installing swaps the version up.
func TestInstallAndGet(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	repo := testRepository(t, 31)
	vals := foreseenSignature(t, repo, 32, 300)

	// No templates yet: decisions are rejected, not crashed.
	code, body, _ := decision(t, ts.URL+"/v1/lookup", "", 0, vals)
	if code != http.StatusBadRequest {
		t.Fatalf("decision on empty server: %d %s", code, body)
	}

	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		t.Fatal(err)
	}
	serialized := buf.Bytes()
	resp, err := http.Post(ts.URL+"/v1/install?template=cassandra", "application/json", bytes.NewReader(serialized))
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d %s", resp.StatusCode, ib)
	}

	// The sole template serves untemplated requests too.
	code, body, lr := decision(t, ts.URL+"/v1/lookup", "", 0, vals)
	if code != http.StatusOK || !lr.Results[0].Hit {
		t.Fatalf("post-install lookup: %d %s", code, body)
	}

	// Put an interference-bucket entry, then fetch it via /v1/get.
	if code, body := post(t, ts.URL+"/v1/put", `{"template":"cassandra","class":0,"bucket":4,"type":"large","count":7}`); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	code, body = post(t, ts.URL+"/v1/get", `{"template":"cassandra","class":0,"bucket":4}`)
	if code != http.StatusOK || !strings.Contains(body, `"hit":true`) ||
		!strings.Contains(body, `"type":"large"`) || !strings.Contains(body, `"count":7`) {
		t.Fatalf("get: %d %s", code, body)
	}
	code, body = post(t, ts.URL+"/v1/get", `{"template":"cassandra","class":0,"bucket":17}`)
	if code != http.StatusOK || !strings.Contains(body, `"hit":false`) {
		t.Fatalf("get miss: %d %s", code, body)
	}

	// Re-install bumps the version (hot swap, same template id).
	resp, err = http.Post(ts.URL+"/v1/install?template=cassandra", "application/json", bytes.NewReader(serialized))
	if err != nil {
		t.Fatal(err)
	}
	ib, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(ib), `"version":2`) {
		t.Fatalf("re-install: %d %s", resp.StatusCode, ib)
	}

	// Garbage bodies and missing template ids are rejected.
	if resp, err = http.Post(ts.URL+"/v1/install?template=x", "application/json", strings.NewReader("{")); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage install: %d", resp.StatusCode)
	}
	if resp, err = http.Post(ts.URL+"/v1/install", "application/json", bytes.NewReader(serialized)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unnamed install: %d", resp.StatusCode)
	}
}
