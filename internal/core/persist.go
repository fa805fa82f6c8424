package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/ml"
)

// Repository persistence. A cache is only as useful as its lifetime:
// persisting the learned signature space, classifier, and allocation
// entries lets DejaVu survive restarts of the management plane and
// ship a learned repository to another deployment of the same service.

// repositoryState is the serialized form.
type repositoryState struct {
	Version            int             `json:"version"`
	Events             []metrics.Event `json:"events"`
	Means              []float64       `json:"means"`
	Stds               []float64       `json:"stds"`
	Classifier         json.RawMessage `json:"classifier"`
	Centroids          [][]float64     `json:"centroids"`
	NoveltyRadius      []float64       `json:"novelty_radius"`
	CertaintyThreshold float64         `json:"certainty_threshold"`
	Entries            []entryState    `json:"entries"`
}

type entryState struct {
	Class    int    `json:"class"`
	Bucket   int    `json:"bucket"`
	TypeName string `json:"type"`
	Count    int    `json:"count"`
}

const repositoryStateVersion = 1

// Save serializes the repository (signature space, classifier, novelty
// model, and every cached allocation) as JSON.
func (r *Repository) Save(w io.Writer) error {
	clf, err := ml.MarshalClassifier(r.classifier)
	if err != nil {
		return fmt.Errorf("core: marshal classifier: %w", err)
	}
	st := repositoryState{
		Version:            repositoryStateVersion,
		Events:             r.events,
		Means:              r.standardizer.Means,
		Stds:               r.standardizer.Stds,
		Classifier:         clf,
		Centroids:          r.centroids,
		NoveltyRadius:      r.noveltyRadius,
		CertaintyThreshold: r.certaintyThreshold,
	}
	for _, e := range r.Snapshot() {
		st.Entries = append(st.Entries, entryState{
			Class: e.Class, Bucket: e.Bucket,
			TypeName: e.Allocation.Type.Name, Count: e.Allocation.Count,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&st)
}

// SaveRepository is the function twin of (*Repository).Save, mirroring
// LoadRepository: it serializes the repository's signature space,
// classifier, novelty model, and cached allocations as JSON.
func SaveRepository(r *Repository, w io.Writer) error {
	if r == nil {
		return errors.New("core: nil repository")
	}
	return r.Save(w)
}

// LoadRepository restores a repository previously written by Save.
func LoadRepository(rd io.Reader) (*Repository, error) {
	var st repositoryState
	if err := json.NewDecoder(rd).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decode repository: %w", err)
	}
	if st.Version != repositoryStateVersion {
		return nil, fmt.Errorf("core: unsupported repository version %d", st.Version)
	}
	if len(st.Means) != len(st.Events) || len(st.Stds) != len(st.Events) {
		return nil, errors.New("core: standardizer width mismatch")
	}
	clf, err := ml.UnmarshalClassifier(st.Classifier)
	if err != nil {
		return nil, fmt.Errorf("core: restore classifier: %w", err)
	}
	std := &ml.Standardizer{Means: st.Means, Stds: st.Stds}
	repo, err := NewRepository(st.Events, std, clf, st.Centroids, st.NoveltyRadius, st.CertaintyThreshold)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, len(st.Entries))
	for i, e := range st.Entries {
		typ, err := cloud.TypeByName(e.TypeName)
		if err != nil {
			return nil, fmt.Errorf("core: entry class %d bucket %d: %w", e.Class, e.Bucket, err)
		}
		entries[i] = Entry{Class: e.Class, Bucket: e.Bucket, Allocation: cloud.Allocation{Type: typ, Count: e.Count}}
	}
	if err := repo.putAll(entries); err != nil {
		return nil, err
	}
	return repo, nil
}
