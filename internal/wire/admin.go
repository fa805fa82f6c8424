package wire

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
)

// The admin protocol's JSON documents, declared once for the daemon
// that writes them, the front that relays or aggregates them and the
// client that reads them. Field names are the wire contract.

// PutRequest is the /v1/put body: share a tuned allocation — the miss
// path of the DejaVu protocol (tune, then store the result).
type PutRequest struct {
	Template string `json:"template"`
	Class    int    `json:"class"`
	Bucket   int    `json:"bucket"`
	Type     string `json:"type"`
	Count    int    `json:"count"`
}

// PutReply answers /v1/put.
type PutReply struct {
	Version uint64 `json:"version"`
	Entries int    `json:"entries"`
}

// GetRequest is the /v1/get body: fetch a cached allocation by
// (class, bucket) without classification — the controller's
// interference path.
type GetRequest struct {
	Template string `json:"template"`
	Class    int    `json:"class"`
	Bucket   int    `json:"bucket"`
}

// GetReply answers /v1/get; Type and Count travel only on a hit.
type GetReply struct {
	Version uint64 `json:"version"`
	Hit     bool   `json:"hit"`
	Type    string `json:"type,omitempty"`
	Count   int    `json:"count,omitempty"`
}

// InstallReply answers /v1/install: the version now serving and the
// shape of the repository that was published.
type InstallReply struct {
	Template string `json:"template"`
	Version  uint64 `json:"version"`
	Classes  int    `json:"classes"`
	Entries  int    `json:"entries"`
}

// TemplateStats is one template's slice of the /v1/stats document.
type TemplateStats struct {
	Template      string  `json:"template"`
	Version       uint64  `json:"version"`
	Classes       int     `json:"classes"`
	Entries       int     `json:"entries"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	Decisions     int64   `json:"decisions"`
	DriftWindows  int64   `json:"drift_windows"`
	LastDriftRate float64 `json:"last_window_unforeseen_rate"`
	DriftTriggers int64   `json:"drift_triggers"`
	Relearns      int64   `json:"relearns"`
	RelearnFails  int64   `json:"relearn_failures"`
	Relearning    bool    `json:"relearning"`
	RecentRows    int     `json:"recent_rows"`
}

// Stats is the /v1/stats document. The top-level repository and drift
// fields describe one template (the routed one); Templates counts how
// many the server serves.
type Stats struct {
	TemplateStats
	Templates     int     `json:"templates"`
	ClassifyReqs  int64   `json:"classify_requests"`
	LookupReqs    int64   `json:"lookup_requests"`
	PutReqs       int64   `json:"put_requests"`
	GetReqs       int64   `json:"get_requests"`
	Installs      int64   `json:"installs"`
	BadRequests   int64   `json:"bad_requests"`
	Snapshots     int64   `json:"snapshots"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Merge folds another replica's document for the same template into s:
// every counter sums (each replica saw a share of the traffic), the
// hit rate is recomputed from the summed counts, and everything that
// describes the repository or one process — version, shape, drift
// rate, uptime — stays as s has it, in-sync replicas holding identical
// content.
func (s *Stats) Merge(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Decisions += o.Decisions
	s.DriftWindows += o.DriftWindows
	s.DriftTriggers += o.DriftTriggers
	s.Relearns += o.Relearns
	s.RelearnFails += o.RelearnFails
	s.ClassifyReqs += o.ClassifyReqs
	s.LookupReqs += o.LookupReqs
	s.PutReqs += o.PutReqs
	s.GetReqs += o.GetReqs
	s.Installs += o.Installs
	s.BadRequests += o.BadRequests
	s.Snapshots += o.Snapshots
	s.HitRate = 0
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
}

// TemplateInfo is one entry of the /v1/templates listing.
type TemplateInfo struct {
	Template string          `json:"template"`
	Version  uint64          `json:"version"`
	Classes  int             `json:"classes"`
	Entries  int             `json:"entries"`
	Events   []metrics.Event `json:"events"`
}

// HealthTemplate is one template's slice of the /v1/health document:
// just enough for a registry probe to reason about version alignment.
type HealthTemplate struct {
	Version uint64 `json:"version"`
	Entries int    `json:"entries"`
}

// Health is dejavud's /v1/health document — a deliberately cheap
// liveness and version surface: no repository traversal beyond the
// per-template atomic snapshot loads, so probes at high frequency cost
// nothing measurable.
type Health struct {
	Status        string                    `json:"status"`
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Templates     map[string]HealthTemplate `json:"templates"`
	Relearning    bool                      `json:"relearning"`
}

// APIError is a request the daemon parsed and rejected: the HTTP status
// and the reply body as sent. A front relays both unchanged, so a
// client sees the same rejection whether or not a front sits between.
type APIError struct {
	Status int
	Body   string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: dejavud returned HTTP %d: %s", e.Status, e.Body)
}

// NewAPIError wraps err as the {"error":…} reply under status.
func NewAPIError(status int, err error) *APIError {
	body, _ := json.Marshal(map[string]string{"error": err.Error()}) // cannot fail
	return &APIError{Status: status, Body: string(body) + "\n"}
}
