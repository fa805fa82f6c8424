package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultMaxBody bounds a decision or install body: what dejavud, and
// so the front, accepts.
const DefaultMaxBody = 8 << 20

// maxDocBody bounds the small JSON request documents (put, get).
const maxDocBody = 64 << 10

// OpName names a decision for spans: the last path element of its
// HTTP route.
func OpName(lookup bool) string {
	if lookup {
		return "lookup"
	}
	return "classify"
}

// Backend is what the admin routes serve: dejavud's template table and
// the replicated tier's registry both implement it, so one handler set
// fronts either.
type Backend interface {
	// InstallAt publishes a serialized repository (core.SaveRepository
	// bytes) under the template id, creating it or swapping it in;
	// version 0 means the backend's next, N forces it (?version=N).
	InstallAt(template string, data []byte, version uint64) (InstallReply, error)
	Put(PutRequest) (PutReply, error)
	Get(GetRequest) (GetReply, error)
	// StatsFor reports one template's statistics ("" = the default).
	StatsFor(template string) (Stats, error)
	Templates() ([]TemplateInfo, error)
}

// Plane is the HTTP side of the admin protocol, written once for
// dejavud and the decision front: the route table, the request policy
// (one method per path; bounded bodies, rejected rather than
// truncated), the JSON reply and error writers, the trace dump, the
// Prometheus scrape and the binary decision adapter.
type Plane struct {
	// Spans is the process's trace ring: sampled decision hops append
	// to it, GET /v1/trace dumps it.
	Spans *obs.SpanRing

	component  string
	maxBody    int64
	failStatus int
	rejected   *atomic.Int64
	mux        http.ServeMux
	routes     map[string]string // path → the one method it takes
}

// NewPlane assembles a plane serving GET /v1/trace and GET /metrics;
// the daemon adds its other rows and serves the plane as its handler.
// component names the process in spans; maxBody bounds decision and
// install bodies; failStatus answers an error that carries no status —
// 400 where the backend is local and an error means a bad request, 502
// where it forwards and an error means an unreachable upstream;
// rejected is the daemon's count of error replies; collect lists the
// families of a scrape.
func NewPlane(component string, maxBody int64, failStatus int, rejected *atomic.Int64, collect func() []obs.Metric) *Plane {
	p := &Plane{
		Spans:      obs.NewSpanRing(obs.DefaultSpanRingSize),
		component:  component,
		maxBody:    maxBody,
		failStatus: failStatus,
		rejected:   rejected,
		routes:     map[string]string{},
	}
	p.Handle(http.MethodGet, "/v1/trace", 0, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = p.Spans.WriteJSON(w, component)
	})
	p.Handle(http.MethodGet, "/metrics", 0, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WriteExposition(w, collect())
	})
	return p
}

func (p *Plane) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Routes maps each registered path to the one method it takes.
func (p *Plane) Routes() map[string]string { return p.routes }

// Handle adds a row: h runs only for the named method (anything else is
// 405 with Allow), and a read past a positive maxBody fails instead of
// truncating.
func (p *Plane) Handle(method, path string, maxBody int64, h http.HandlerFunc) {
	p.routes[path] = method
	p.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			p.Fail(w, NewAPIError(http.StatusMethodNotAllowed, errors.New("method not allowed")))
			return
		}
		if maxBody > 0 {
			if r.ContentLength > maxBody {
				p.Fail(w, tooLarge(maxBody))
				return
			}
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		h(w, r)
	})
}

func tooLarge(limit int64) *APIError {
	return NewAPIError(http.StatusRequestEntityTooLarge, fmt.Errorf("wire: request body exceeds the limit of %d bytes", limit))
}

// ReadBody drains the request body into buf (nil for a fresh one); a
// reused buffer that fits the workload's requests makes it allocation
// free. When ok is false it has answered: 413 past the row's limit, 400
// for a broken read.
func (p *Plane) ReadBody(w http.ResponseWriter, r *http.Request, buf []byte) (body []byte, ok bool) {
	if n := int(r.ContentLength); n > 0 && cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			var over *http.MaxBytesError
			if errors.As(err, &over) {
				p.Fail(w, tooLarge(over.Limit))
			} else {
				p.Fail(w, NewAPIError(http.StatusBadRequest, err))
			}
			return buf, false
		}
	}
}

// Fail answers an error and counts it. An *APIError — the plane's own
// rejections, and an upstream daemon's passing through a front — goes
// out with its status and body as they are; any other error becomes the
// {"error":…} reply under the plane's fail status.
func (p *Plane) Fail(w http.ResponseWriter, err error) {
	p.rejected.Add(1)
	var api *APIError
	if !errors.As(err, &api) {
		api = NewAPIError(p.failStatus, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(api.Status)
	_, _ = io.WriteString(w, api.Body)
}

// Reply answers a handler's outcome: the document as JSON, or Fail.
func (p *Plane) Reply(w http.ResponseWriter, doc any, err error) {
	if err != nil {
		p.Fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// docRoute adds a POST row that decodes a small JSON request document,
// serves it and replies with the result.
func docRoute[Req, Rep any](p *Plane, path string, serve func(Req) (Rep, error)) {
	p.Handle(http.MethodPost, path, maxDocBody, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		body, ok := p.ReadBody(w, r, nil)
		if !ok {
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			p.Fail(w, NewAPIError(http.StatusBadRequest, fmt.Errorf("wire: decode %s: %w", path, err)))
			return
		}
		rep, err := serve(req)
		p.Reply(w, rep, err)
	})
}

// Admin adds the rows every backend serves alike: /v1/install, /v1/put,
// /v1/get, /v1/templates and /v1/stats. self, when set, answers a
// /v1/stats request that names no template with the process's own
// counters (the front's) instead of the backend's default template.
func (p *Plane) Admin(b Backend, self func() any) {
	p.Handle(http.MethodPost, "/v1/install", p.maxBody, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		name := q.Get("template")
		var version uint64
		var err error
		switch v := q.Get("version"); {
		case name == "":
			err = errors.New("wire: install needs ?template=NAME")
		case len(name) > maxTemplateLen || strings.ContainsAny(name, "/\\%\x00"):
			err = fmt.Errorf("wire: invalid template id %q", name)
		case v != "":
			if version, err = strconv.ParseUint(v, 10, 64); err != nil || version == 0 {
				err = fmt.Errorf("wire: invalid install version %q", v)
			}
		}
		if err != nil {
			p.Fail(w, NewAPIError(http.StatusBadRequest, err))
			return
		}
		body, ok := p.ReadBody(w, r, nil)
		if !ok {
			return
		}
		rep, err := b.InstallAt(name, body, version)
		p.Reply(w, rep, err)
	})
	docRoute(p, "/v1/put", b.Put)
	docRoute(p, "/v1/get", b.Get)
	p.Handle(http.MethodGet, "/v1/templates", 0, func(w http.ResponseWriter, _ *http.Request) {
		infos, err := b.Templates()
		p.Reply(w, infos, err)
	})
	p.Handle(http.MethodGet, "/v1/stats", 0, func(w http.ResponseWriter, r *http.Request) {
		template := r.URL.Query().Get("template")
		if template == "" && self != nil {
			p.Reply(w, self(), nil)
			return
		}
		st, err := b.StatsFor(template)
		p.Reply(w, st, err)
	})
}

// Hop is the trace state of a sampled decision crossing this process:
// the caller's context, the child this hop records under and forwards
// downstream, and when the hop began. The zero Hop is unsampled.
type Hop struct {
	Parent, Child obs.TraceContext
	Start         time.Time
}

// Decision adds the binary /v1/classify and /v1/lookup rows. h serves
// one batch between BeginDecision and EndDecision, around the daemon's
// own decide and its own pooled scratch.
func (p *Plane) Decision(h func(w http.ResponseWriter, r *http.Request, lookup bool)) {
	p.Handle(http.MethodPost, "/v1/classify", p.maxBody, func(w http.ResponseWriter, r *http.Request) { h(w, r, false) })
	p.Handle(http.MethodPost, "/v1/lookup", p.maxBody, func(w http.ResponseWriter, r *http.Request) { h(w, r, true) })
}

// BeginDecision is the request half of the decision adapter: the
// Content-Type guard (415 — a guard, not a negotiation), the bounded
// read into the caller's pooled buffer, and the trace context a sampled
// decision carries in the (canonically spelled) Dejavu-Trace header —
// the untraced path pays one map probe. When ok is false it has answered.
func (p *Plane) BeginDecision(w http.ResponseWriter, r *http.Request, buf *[]byte) (hop Hop, ok bool) {
	if _, err := EncodingForContentType(r.Header.Get("Content-Type")); err != nil {
		p.Fail(w, NewAPIError(http.StatusUnsupportedMediaType, err))
		return hop, false
	}
	if *buf, ok = p.ReadBody(w, r, *buf); !ok {
		return hop, false
	}
	if hv := r.Header.Get(obs.TraceHeader); hv != "" {
		if tc, valid := obs.ParseHeaderContext(hv); valid {
			hop = Hop{Parent: tc, Child: obs.Child(tc), Start: time.Now()}
		}
	}
	return hop, true
}

// EndDecision is the reply half: it records the hop of a sampled
// decision, then writes the encoded response frame, or fails with err.
func (p *Plane) EndDecision(w http.ResponseWriter, lookup bool, hop Hop, out []byte, err error) {
	if hop.Child.Valid() {
		p.Spans.RecordHop(hop.Parent, hop.Child, p.component, OpName(lookup), hop.Start, time.Since(hop.Start))
	}
	if err != nil {
		p.Fail(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", ContentTypeBinary)
	// An explicit Content-Length keeps large batches out of chunked
	// encoding, so lean clients can frame responses without a chunked
	// decoder. (Itoa's small alloc sits outside the pinned decide()
	// path, alongside net/http's own per-request costs.)
	h.Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = w.Write(out)
}
