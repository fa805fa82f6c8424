package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/ml"
)

// Online re-learning — the server-side analogue of the §3.5 staleness
// loop. The sim-embedded Relearner re-runs the whole learning phase
// (profiling, CFS, tuning) because it owns a profiling environment;
// a network decision service owns only the signatures its clients
// send. RelearnFromSignatures therefore rebuilds the parts of the
// repository that go stale — the clustering, novelty radii, and
// runtime classifier — directly from recently observed signatures,
// keeping the signature metric tuple fixed. Allocation entries start
// empty: class identities change with the clustering, and the DejaVu
// protocol already repopulates entries on misses (clients tune and
// Put, exactly like a fresh learning day).

// OnlineRelearnConfig parameterizes RelearnFromSignatures, which
// otherwise uses Learn's fixed parameters and its default classifier.
// The zero value of every field except Rng picks the Learn defaults.
type OnlineRelearnConfig struct {
	// MaxK bounds the cluster count search from above (default 6);
	// it starts at Learn's default minimum, 2.
	MaxK int
	// Rng drives clustering restarts; required. Only derived per-run
	// seeds are consumed, so results are Workers-independent.
	Rng *rand.Rand
	// Workers bounds the clustering fan-out on the shared
	// internal/parallel pool; 0 means GOMAXPROCS.
	Workers int
}

// RelearnFromSignatures builds a fresh repository over the given
// signature metric tuple from recently observed signature rows
// (len(events) values each, profiler-normalized like Signature.Values).
// It runs entirely off any decision path: callers build the new
// repository in the background and publish it through Handle.Swap.
func RelearnFromSignatures(events []metrics.Event, rows [][]float64, cfg OnlineRelearnConfig) (*Repository, error) {
	if len(events) == 0 {
		return nil, errors.New("core: relearn needs signature events")
	}
	if cfg.Rng == nil {
		return nil, errors.New("core: relearn needs a Rng")
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = defaultMaxK
	}
	if defaultMinK > cfg.MaxK {
		return nil, fmt.Errorf("core: OnlineRelearnConfig.MaxK %d is below MinK %d", cfg.MaxK, defaultMinK)
	}
	if len(rows) < 2*defaultMinK {
		return nil, fmt.Errorf("core: %d signatures are too few to re-cluster (need >= %d)", len(rows), 2*defaultMinK)
	}

	// The dataset only reads the caller's rows; the one copy the
	// relearn keeps is the standardized one the clustering, the radii
	// and the classifier all work on.
	ds := ml.NewDataset(eventNames(events))
	for i, row := range rows {
		if len(row) != len(events) {
			return nil, fmt.Errorf("core: relearn row %d: has %d values, want %d", i, len(row), len(events))
		}
	}
	ds.X, ds.Y = rows, make([]int, len(rows))
	std, err := ml.FitStandardizer(ds)
	if err != nil {
		return nil, err
	}
	dsZ := std.TransformDataset(ds)
	clusters, err := ml.KMeansAuto(dsZ.X, defaultMinK, cfg.MaxK, ml.KMeansConfig{Rng: cfg.Rng, Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("core: re-clustering: %w", err)
	}
	dsZ.Y = clusters.Assignments

	// A class's radius is its farthest member's distance: the root of
	// the largest squared distance, which is the largest of the roots.
	radii := make([]float64, clusters.K)
	for i, row := range dsZ.X {
		c := clusters.Assignments[i]
		if sq := ml.SquaredDistance(row, clusters.Centroids[c]); sq > radii[c] {
			radii[c] = sq
		}
	}
	for c := range radii {
		radii[c] = max(math.Sqrt(radii[c])*noveltyTolerance, minNoveltyRadius)
	}

	clf, err := trainFunc(defaultClassifier)(dsZ)
	if err != nil {
		return nil, fmt.Errorf("core: training classifier: %w", err)
	}
	return NewRepository(events, std, clf, clusters.Centroids, radii, certaintyThreshold)
}
