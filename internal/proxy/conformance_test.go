package proxy

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// adminTarget is one backend of the admin conformance script: its
// handler on loopback plus the daemons that hold the repositories.
type adminTarget struct {
	name     string
	url      string
	handler  http.Handler
	replicas []*server.Server
}

// startTier brings up n empty dejavuds behind a registry and a front.
func startTier(t testing.TB, n int) (*DecisionFront, adminTarget) {
	t.Helper()
	tgt := adminTarget{name: "front"}
	specs := make([]replica.Spec, n)
	for i := range specs {
		s, err := server.New(server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		tgt.replicas = append(tgt.replicas, s)
		specs[i] = replica.Spec{Name: string(rune('a' + i)), Addr: strings.TrimPrefix(hs.URL, "http://")}
	}
	reg, err := replica.New(replica.Config{
		Replicas: specs,
		Probe:    replica.ProbeConfig{Interval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	front, err := NewDecisionFront(DecisionFrontConfig{Replicas: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	fs := httptest.NewServer(front.Handler())
	t.Cleanup(fs.Close)
	tgt.url, tgt.handler = fs.URL, front.Handler()
	return front, tgt
}

// adminTargets is the two backends the script must not tell apart: a
// bare dejavud and a front over a one-replica tier, both empty.
func adminTargets(t testing.TB) []adminTarget {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	_, tier := startTier(t, 1)
	return []adminTarget{{name: "dejavud", url: hs.URL, handler: s.Handler(), replicas: []*server.Server{s}}, tier}
}

// do sends one request and returns the status, headers and body.
func do(t testing.TB, method, url, contentType string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// docFields lists a JSON document's top-level field names, sorted; for
// an array, those of its first element.
func docFields(t testing.TB, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("reply is not JSON: %v\n%s", err, body)
	}
	if arr, ok := v.([]any); ok && len(arr) > 0 {
		v = arr[0]
	}
	obj, _ := v.(map[string]any)
	names := make([]string, 0, len(obj))
	for k := range obj {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// The documents of the admin protocol, by field name, as the commit
// before the shared plane wrote them (dejavud's side of each).
const (
	statsFields = "bad_requests classes classify_requests decisions drift_triggers drift_windows entries get_requests " +
		"hit_rate hits installs last_window_unforeseen_rate lookup_requests misses put_requests recent_rows " +
		"relearn_failures relearning relearns snapshots template templates uptime_seconds version"
	installFields  = "classes entries template version"
	templateFields = "classes entries events template version"
	errorFields    = "error"
)

// TestAdminConformance runs one admin script — literal request bodies,
// literal reply field names and statuses — against dejavud and against
// a front over a one-replica tier: the two serve the admin protocol
// from one route table and must answer alike.
func TestAdminConformance(t *testing.T) {
	repo := learnFrontRepo(t, 71)
	var repoBytes bytes.Buffer
	if err := core.SaveRepository(repo, &repoBytes); err != nil {
		t.Fatal(err)
	}
	var lookup wire.Request
	lookup.SetTemplate("svc")
	lookup.AppendRow(frontSignature(t, repo, 72))
	frame, err := lookup.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	const jsonType = "application/json"

	steps := []struct {
		name, method, path, contentType string
		body                            []byte
		status                          int
		// fields is the reply's field names ("" = not a JSON document);
		// frontFields overrides it where the front serves its own document.
		fields, frontFields string
	}{
		{"install", "POST", "/v1/install?template=svc", jsonType, repoBytes.Bytes(), 200, installFields, ""},
		{"templates", "GET", "/v1/templates", "", nil, 200, templateFields, ""},
		{"put", "POST", "/v1/put", jsonType, []byte(`{"template":"svc","class":0,"bucket":3,"type":"large","count":6}`), 200, "entries version", ""},
		{"get hit", "POST", "/v1/get", jsonType, []byte(`{"template":"svc","class":0,"bucket":3}`), 200, "count hit type version", ""},
		{"get miss", "POST", "/v1/get", jsonType, []byte(`{"template":"svc","class":0,"bucket":9}`), 200, "hit version", ""},
		{"lookup", "POST", "/v1/lookup", wire.ContentTypeBinary, frame, 200, "", ""},
		{"stats", "GET", "/v1/stats?template=svc", "", nil, 200, statsFields, ""},
		{"health", "GET", "/v1/health", "", nil, 200, "relearning status templates uptime_seconds", "front status tier"},
		{"trace", "GET", "/v1/trace", "", nil, 200, "component spans total", ""},
		{"metrics", "GET", "/metrics", "", nil, 200, "", ""},
		{"put to unknown template", "POST", "/v1/put", jsonType, []byte(`{"template":"nope","class":0,"bucket":0,"type":"large","count":1}`), 400, errorFields, ""},
		{"get from unknown template", "POST", "/v1/get", jsonType, []byte(`{"template":"nope","class":0,"bucket":0}`), 400, errorFields, ""},
		{"stats of unknown template", "GET", "/v1/stats?template=nope", "", nil, 400, errorFields, ""},
		{"put of unknown type", "POST", "/v1/put", jsonType, []byte(`{"template":"svc","class":0,"bucket":0,"type":"petabyte","count":1}`), 400, errorFields, ""},
		{"malformed put", "POST", "/v1/put", jsonType, []byte(`{"template":`), 400, errorFields, ""},
		{"malformed get", "POST", "/v1/get", jsonType, []byte(`not json`), 400, errorFields, ""},
		{"malformed install", "POST", "/v1/install?template=svc", jsonType, []byte(`{"version":`), 400, errorFields, ""},
		{"install without template", "POST", "/v1/install", jsonType, repoBytes.Bytes(), 400, errorFields, ""},
		{"bad install version", "POST", "/v1/install?template=svc&version=abc", jsonType, repoBytes.Bytes(), 400, errorFields, ""},
		{"zero install version", "POST", "/v1/install?template=svc&version=0", jsonType, repoBytes.Bytes(), 400, errorFields, ""},
		{"JSON on a decision route", "POST", "/v1/lookup", jsonType, []byte(`{"signature":[1,2,3]}`), 415, errorFields, ""},
		{"frame under the wrong label", "POST", "/v1/classify", "text/plain", frame, 415, errorFields, ""},
		{"not a frame", "POST", "/v1/lookup", wire.ContentTypeBinary, []byte(`{"oops":true}`), 400, errorFields, ""},
	}
	for _, tgt := range adminTargets(t) {
		for _, st := range steps {
			status, hdr, body := do(t, st.method, tgt.url+st.path, st.contentType, st.body)
			if status != st.status {
				t.Errorf("%s: %s: status %d, want %d (%s)", tgt.name, st.name, status, st.status, body)
				continue
			}
			want := st.fields
			if tgt.name == "front" && st.frontFields != "" {
				want = st.frontFields
			}
			if want == "" {
				continue
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: %s: Content-Type %q, want application/json", tgt.name, st.name, ct)
			}
			if got := docFields(t, body); got != want {
				t.Errorf("%s: %s: reply fields\n got %s\nwant %s", tgt.name, st.name, got, want)
			}
		}
		// The script's one valid install is the only version change.
		if v := tgt.replicas[0].HealthSnapshot().Templates["svc"].Version; v != 1 {
			t.Errorf("%s: template version %d after the script, want 1", tgt.name, v)
		}
	}
}

// TestAdminBodyLimits pins the one bounded body reader on both
// handlers: a decision batch or a repository past the limit (8 MiB, what
// a default dejavud accepts and therefore what the front accepts) is
// refused with 413 naming the limit — whether the length is declared or
// the body is streamed — counts as an error, and changes no template.
func TestAdminBodyLimits(t *testing.T) {
	front, tier := startTier(t, 1)
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	oversize := make([]byte, wire.DefaultMaxBody+1)
	for _, tgt := range []struct {
		name, url string
		srv       *server.Server
		errors    func() int64
	}{
		{"dejavud", hs.URL, s, func() int64 { return s.StatsSnapshot().BadRequests }},
		{"front", tier.url, tier.replicas[0], func() int64 { return front.Stats().Errors }},
	} {
		for _, route := range []struct{ path, contentType string }{
			{"/v1/lookup", wire.ContentTypeBinary},
			{"/v1/classify", wire.ContentTypeBinary},
			{"/v1/install?template=svc", "application/json"},
		} {
			for _, streamed := range []bool{false, true} {
				var body io.Reader = bytes.NewReader(oversize)
				if streamed {
					body = io.MultiReader(body) // hides the length: chunked, no Content-Length
				}
				before := tgt.errors()
				resp, err := http.Post(tgt.url+route.path, route.contentType, body)
				if err != nil {
					t.Fatal(err)
				}
				reply, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(reply), "8388608") {
					t.Errorf("%s %s (streamed=%v): %d %s, want 413 naming the limit", tgt.name, route.path, streamed, resp.StatusCode, reply)
				}
				if got := tgt.errors() - before; got != 1 {
					t.Errorf("%s %s (streamed=%v): error counter moved by %d, want 1", tgt.name, route.path, streamed, got)
				}
			}
		}
		if n := len(tgt.srv.HealthSnapshot().Templates); n != 0 {
			t.Errorf("%s: %d templates after refused installs, want none", tgt.name, n)
		}
	}
}

// TestAdminMethodGuard sends every route of both handlers every wrong
// method: each row of the table takes exactly one, and anything else is
// 405 with Allow naming it and the JSON error reply.
func TestAdminMethodGuard(t *testing.T) {
	for _, tgt := range adminTargets(t) {
		plane := tgt.handler.(*wire.Plane)
		if len(plane.Routes()) < 10 {
			t.Fatalf("%s: route table has %d rows", tgt.name, len(plane.Routes()))
		}
		for _, rt := range plane.Routes() {
			for _, method := range []string{"GET", "POST", "PUT", "DELETE"} {
				if method == rt.Method {
					continue
				}
				status, hdr, body := do(t, method, tgt.url+rt.Path, "", nil)
				if status != http.StatusMethodNotAllowed || hdr.Get("Allow") != rt.Method || docFields(t, body) != errorFields {
					t.Errorf("%s: %s %s: %d Allow=%q %s, want 405 Allow=%s", tgt.name, method, rt.Path, status, hdr.Get("Allow"), body, rt.Method)
				}
			}
		}
	}
}

// TestTierStatsSumEveryCounter pins the replicated front's
// /v1/stats?template=: every counter of the shared document is the sum
// over the replicas, the repository's shape is the first responder's.
func TestTierStatsSumEveryCounter(t *testing.T) {
	_, tier := startTier(t, 3)
	repo := learnFrontRepo(t, 71)
	var repoBytes bytes.Buffer
	if err := core.SaveRepository(repo, &repoBytes); err != nil {
		t.Fatal(err)
	}
	if status, _, body := do(t, "POST", tier.url+"/v1/install?template=svc", "application/json", repoBytes.Bytes()); status != 200 {
		t.Fatalf("install: %d %s", status, body)
	}
	var req wire.Request
	req.SetTemplate("svc")
	req.AppendRow(frontSignature(t, repo, 72))
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for _, path := range []string{"/v1/lookup", "/v1/classify"} {
			if status, _, body := do(t, "POST", tier.url+path, wire.ContentTypeBinary, frame); status != 200 {
				t.Fatalf("%s: %d %s", path, status, body)
			}
		}
		do(t, "POST", tier.url+"/v1/get", "application/json", []byte(`{"template":"svc","class":0,"bucket":1}`))
	}
	do(t, "POST", tier.url+"/v1/put", "application/json", []byte(`{"template":"svc","class":0,"bucket":1,"type":"large","count":2}`))

	var want wire.Stats
	for i, s := range tier.replicas {
		st, err := s.StatsFor("svc")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = st
		} else {
			want.Merge(st)
		}
	}
	_, _, body := do(t, "GET", tier.url+"/v1/stats?template=svc", "", nil)
	var got wire.Stats
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	got.UptimeSeconds, want.UptimeSeconds = 0, 0
	if got != want {
		t.Errorf("tier stats\n got %+v\nwant %+v", got, want)
	}
	// The traffic above is what the sums must account for: a put lands
	// on every replica, everything else on exactly one.
	if got.LookupReqs != 7 || got.ClassifyReqs != 7 || got.GetReqs != 7 || got.PutReqs != 3 ||
		got.Installs != 3 || got.Decisions != 14 || got.Hits+got.Misses != 7 || got.Version != 1 || got.Templates != 1 {
		t.Errorf("tier stats do not add up: %+v", got)
	}
}

// TestEndpointTableListsEveryRoute holds docs/ARCHITECTURE.md's
// endpoint table to the two route tables: every row a handler serves is
// a row of the document, under its method.
func TestEndpointTableListsEveryRoute(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range adminTargets(t) {
		for _, rt := range tgt.handler.(*wire.Plane).Routes() {
			found := false
			for _, line := range strings.Split(string(doc), "\n") {
				if strings.HasPrefix(line, "| `") && strings.Contains(line, "`"+rt.Path) && strings.Contains(line, "| "+rt.Method+" |") {
					found = true
				}
			}
			if !found {
				t.Errorf("%s serves %s %s, which the endpoint table does not list", tgt.name, rt.Method, rt.Path)
			}
		}
	}
}
