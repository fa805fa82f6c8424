package client

import (
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// TemplateSource binds a client to one remote template and implements
// core.DecisionSource, so a controller (or a whole fleet of them)
// drives the remote daemon exactly like an in-process repository.
// Safe for concurrent use.
type TemplateSource struct {
	c        *Client
	template string
	events   []metrics.Event
	scratch  sync.Pool // *decideScratch: per-goroutine wire state
}

// decideScratch is the reusable wire state of one in-flight decision.
type decideScratch struct {
	req  wire.Request
	resp wire.Response
}

// Source binds the client to a remote template. events is the
// template's signature tuple — the caller usually knows it (it
// learned or installed the repository); pass nil to fetch it from
// the daemon's /v1/templates listing.
func (c *Client) Source(template string, events []metrics.Event) (*TemplateSource, error) {
	if events == nil {
		infos, err := c.Templates()
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			if info.Template == template {
				events = info.Events
				break
			}
		}
		if events == nil {
			return nil, fmt.Errorf("client: daemon serves no template %q", template)
		}
	}
	s := &TemplateSource{c: c, template: template, events: events}
	s.scratch.New = func() any { return &decideScratch{} }
	return s, nil
}

// Events implements core.DecisionSource.
func (s *TemplateSource) Events() []metrics.Event { return s.events }

// Lookup implements core.DecisionSource: one signature, one decision,
// one round trip.
func (s *TemplateSource) Lookup(sig *core.Signature, bucket int) (core.LookupResult, error) {
	if err := sig.Validate(); err != nil {
		return core.LookupResult{}, err
	}
	rows := [1][]float64{sig.Values}
	var out [1]core.LookupResult
	err := s.LookupRows(bucket, rows[:], out[:])
	return out[0], err
}

// LookupRows implements core.BatchSource: the rows share one
// interference bucket and one round trip, travelling as a single frame
// built in the source's pooled scratch.
func (s *TemplateSource) LookupRows(bucket int, rows [][]float64, out []core.LookupResult) error {
	sc := s.scratch.Get().(*decideScratch)
	defer s.scratch.Put(sc)
	sc.req.Reset()
	sc.req.SetTemplate(s.template)
	sc.req.Bucket = bucket
	for _, row := range rows {
		if len(row) != len(s.events) {
			return fmt.Errorf("client: signature width %d, template %q expects %d",
				len(row), s.template, len(s.events))
		}
		sc.req.AppendRow(row)
	}
	if err := s.c.Decide(true, &sc.req, &sc.resp); err != nil {
		return err
	}
	for i := range rows {
		out[i] = decisionToLookup(&sc.resp.Results[i])
	}
	return nil
}

// LookupBatch sends a caller-assembled batch for template-routed
// lookup; req's template field is overwritten with the source's. The
// fleet's load generators and the decision proxy use this shape.
func (s *TemplateSource) LookupBatch(req *wire.Request, resp *wire.Response) error {
	req.SetTemplate(s.template)
	return s.c.Decide(true, req, resp)
}

// decisionToLookup maps a wire decision row to the library type.
func decisionToLookup(d *wire.Decision) core.LookupResult {
	res := core.LookupResult{
		Class:      d.Class,
		Certainty:  d.Certainty,
		Unforeseen: d.Unforeseen,
		Hit:        d.Hit,
	}
	if d.Hit {
		res.Allocation = cloud.Allocation{Type: d.Type.Instance(), Count: d.Count}
	}
	return res
}

// Get implements core.DecisionSource via POST /v1/get (off the hot
// path: the controller probes it only on interference escalation).
func (s *TemplateSource) Get(class, bucket int) (cloud.Allocation, bool, error) {
	rep, err := s.c.Get(wire.GetRequest{Template: s.template, Class: class, Bucket: bucket})
	if err != nil || !rep.Hit {
		return cloud.Allocation{}, false, err
	}
	typ, err := cloud.TypeByName(rep.Type)
	if err != nil {
		return cloud.Allocation{}, false, err
	}
	return cloud.Allocation{Type: typ, Count: rep.Count}, true, nil
}

// Put implements core.DecisionSource via POST /v1/put.
func (s *TemplateSource) Put(class, bucket int, alloc cloud.Allocation) error {
	_, err := s.c.Put(wire.PutRequest{
		Template: s.template, Class: class, Bucket: bucket,
		Type: alloc.Type.Name, Count: alloc.Count,
	})
	return err
}

var _ core.BatchSource = (*TemplateSource)(nil)
