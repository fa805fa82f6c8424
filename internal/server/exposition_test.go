package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/replica"
)

// scrape fetches a handler's /metrics document.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("/metrics Content-Type %q", ct)
	}
	return string(raw)
}

// typeLines keeps an exposition's `# TYPE name type` lines, in order.
func typeLines(text string) string {
	var b strings.Builder
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "# TYPE ") {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

// TestExpositionEverywhere holds every /metrics document the system
// serves — dejavud with one template and with several, the front over a
// single upstream and over a replicated tier — to the exposition
// grammar, and pins the name and type of every series against
// testdata/metrics_types.golden, recorded from the commit before the
// two handlers shared one writer: a refactor of the exposition cannot
// rename or retype a series unnoticed.
func TestExpositionEverywhere(t *testing.T) {
	repo := testRepository(t, 12)
	single, sts := newTestServer(t, repo, Config{})
	hA, err := core.NewHandle(testRepository(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	hB, err := core.NewHandle(testRepository(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(Config{Templates: map[string]*core.Handle{"cassandra": hA, "specweb": hB}})
	if err != nil {
		t.Fatal(err)
	}
	// A family the linter accepts has samples: every handler below
	// serves at least one decision before it is scraped.
	vals := foreseenSignature(t, repo, 13, 300)
	mts := httptest.NewServer(multi.Handler())
	defer mts.Close()
	for url, template := range map[string]string{sts.URL: "", mts.URL: "specweb"} {
		if code, body, _ := decision(t, url+"/v1/lookup", template, 0, vals); code != 200 {
			t.Fatalf("lookup: %d %s", code, body)
		}
	}

	addr := strings.TrimPrefix(sts.URL, "http://")
	up, err := client.New(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	frontSingle, err := proxy.NewDecisionFront(proxy.DecisionFrontConfig{Upstream: up})
	if err != nil {
		t.Fatal(err)
	}
	defer frontSingle.Close()
	reg, err := replica.New(replica.Config{
		Replicas: []replica.Spec{{Name: "a", Addr: addr}},
		Probe:    replica.ProbeConfig{Interval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	frontTier, err := proxy.NewDecisionFront(proxy.DecisionFrontConfig{Replicas: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer frontTier.Close()
	// One routed decision and one completed probe for the tier too.
	fts := httptest.NewServer(frontTier.Handler())
	defer fts.Close()
	if code, body, _ := decision(t, fts.URL+"/v1/lookup", DefaultTemplate, 0, vals); code != 200 {
		t.Fatalf("lookup through the front: %d %s", code, body)
	}
	for deadline := time.Now().Add(5 * time.Second); reg.Obs().ProbeRTT.Count == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no replica probe completed")
		}
	}

	var got strings.Builder
	for _, doc := range []struct {
		name string
		h    http.Handler
	}{
		{"dejavud, one template", single.Handler()},
		{"dejavud, two templates", multi.Handler()},
		{"front, single upstream", frontSingle.Handler()},
		{"front, replicated tier", frontTier.Handler()},
	} {
		text := scrape(t, doc.h)
		t.Run(doc.name, func(t *testing.T) { promLint(t, text) })
		got.WriteString("== " + doc.name + "\n" + typeLines(text))
	}
	want, err := os.ReadFile("testdata/metrics_types.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("series names or types drifted from testdata/metrics_types.golden.\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
