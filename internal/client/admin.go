package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Control-plane calls. These are off the decision hot path and use
// encoding/json over the same pooled transport.

// call performs one admin exchange — payload, when non-nil, is the JSON
// request body — and decodes the JSON reply into out (skipped when nil).
func (c *Client) call(method, path string, payload []byte, out any) error {
	contentType := ""
	if payload != nil {
		contentType = "application/json"
	}
	cn, resp, err := c.roundTrip(method, path, contentType, payload, obs.TraceContext{})
	if err != nil {
		return err
	}
	if out != nil {
		err = json.Unmarshal(resp, out)
	}
	c.release(cn, err == nil)
	return err
}

// post sends req as a POST's JSON request document and decodes the
// reply document.
func post[Rep any](c *Client, path string, req any) (rep Rep, err error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return rep, err
	}
	err = c.call("POST", path, payload, &rep)
	return rep, err
}

// Install publishes a learned repository under the template id:
// POST /v1/install. The daemon creates the template or hot-swaps the
// existing one (version increments); the returned version is the one
// now serving.
func (c *Client) Install(template string, repo *core.Repository) (uint64, error) {
	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		return 0, err
	}
	return c.InstallSerialized(template, buf.Bytes(), 0)
}

// InstallSerialized publishes an already-serialized repository
// (core.SaveRepository bytes), optionally forcing the published
// version (0 = the daemon's next local increment). The replicated
// tier fans one serialization out to N replicas at one agreed version,
// so replicas always report identical versions for identical content.
func (c *Client) InstallSerialized(template string, data []byte, version uint64) (uint64, error) {
	rep, err := c.InstallAt(template, data, version)
	return rep.Version, err
}

// InstallAt is InstallSerialized returning the daemon's whole reply.
func (c *Client) InstallAt(template string, data []byte, version uint64) (wire.InstallReply, error) {
	path := "/v1/install?template=" + url.QueryEscape(template)
	if version != 0 {
		path += "&version=" + strconv.FormatUint(version, 10)
	}
	var out wire.InstallReply
	if err := c.call("POST", path, data, &out); err != nil {
		return wire.InstallReply{}, fmt.Errorf("client: install template %q: %w", template, err)
	}
	return out, nil
}

// DumpSerialized fetches one template's live repository as the
// serialized core.SaveRepository bytes plus the version they were
// dumped at — the read half of InstallSerialized. A registry resyncs
// a rejoining replica by dumping a healthy donor and installing the
// bytes verbatim at the same version.
func (c *Client) DumpSerialized(template string) (uint64, []byte, error) {
	var out struct {
		Version uint64          `json:"version"`
		Repo    json.RawMessage `json:"repo"`
	}
	path := "/v1/dump"
	if template != "" {
		path += "?template=" + url.QueryEscape(template)
	}
	if err := c.call("GET", path, nil, &out); err != nil {
		return 0, nil, fmt.Errorf("client: dump template %q: %w", template, err)
	}
	if out.Version == 0 || len(out.Repo) == 0 {
		return 0, nil, fmt.Errorf("client: dump template %q: empty document", template)
	}
	return out.Version, []byte(out.Repo), nil
}

// Stats fetches one template's statistics ("" = the daemon's default
// template).
func (c *Client) Stats(template string) (wire.Stats, error) {
	path := "/v1/stats"
	if template != "" {
		path += "?template=" + url.QueryEscape(template)
	}
	var st wire.Stats
	if err := c.call("GET", path, nil, &st); err != nil {
		return wire.Stats{}, err
	}
	return st, nil
}

// Templates lists the daemon's installed templates.
func (c *Client) Templates() ([]wire.TemplateInfo, error) {
	var infos []wire.TemplateInfo
	if err := c.call("GET", "/v1/templates", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Health fetches the daemon's liveness/version surface. Unlike
// decisions this is never retried across connections: a probe wants
// the daemon's state now, not after a backoff — callers own the
// failure policy. (Transport retries still apply; they are cheap and
// a probe interval bounds them anyway.)
func (c *Client) Health() (wire.Health, error) {
	var h wire.Health
	if err := c.call("GET", "/v1/health", nil, &h); err != nil {
		return wire.Health{}, err
	}
	if h.Status != "ok" {
		return h, fmt.Errorf("client: daemon health status %q", h.Status)
	}
	return h, nil
}

// Put shares a tuned allocation: POST /v1/put.
func (c *Client) Put(req wire.PutRequest) (wire.PutReply, error) {
	return post[wire.PutReply](c, "/v1/put", req)
}

// Get fetches a cached allocation by (class, bucket): POST /v1/get.
func (c *Client) Get(req wire.GetRequest) (wire.GetReply, error) {
	return post[wire.GetReply](c, "/v1/get", req)
}
