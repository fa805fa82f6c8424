package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/services"
	"repro/internal/trace"
)

// LearnConfig drives DejaVu's learning phase (paper §3.3–3.4): profile
// every workload encountered during the initial monitoring period,
// select the signature metrics, cluster workloads into classes, tune
// once per class, and train the runtime classifier.
type LearnConfig struct {
	// Profiler collects signatures.
	Profiler *Profiler
	// Tuner maps workload classes to preferred allocations.
	Tuner Tuner
	// Workloads are the workloads seen during the learning window
	// (e.g. 24 hourly workloads of the traces' first day).
	Workloads []services.Workload
	// MinK and MaxK bound the automatic cluster count search
	// (defaults 2 and 6).
	MinK, MaxK int
	// Classifier selects the runtime model: "c45" (default, the
	// paper's J48) or "bayes".
	Classifier string
	// NoveltyTolerance inflates each class's training radius for the
	// unforeseen-workload check (default 2.0).
	NoveltyTolerance float64
	// MinNoveltyRadius floors the radius so singleton clusters (the
	// paper's peak-hour class) still absorb measurement noise
	// (default 1.0 standardized units).
	MinNoveltyRadius float64
	// Rng drives clustering restarts and cross-validation; required.
	// It is consumed only for derived per-run seeds, so learning
	// results do not depend on Workers.
	Rng *rand.Rand
	// Workers bounds the clustering fan-out (restarts × candidate k
	// on the shared internal/parallel pool); 0 means GOMAXPROCS. The
	// fleet control plane sets this when several service templates
	// learn concurrently so the pools don't oversubscribe the
	// machine.
	Workers int
}

// The learning phase's fixed parameters, shared by Learn and
// RelearnFromSignatures.
const (
	// trialsPerWorkload is how many signature samples Learn takes per
	// workload.
	trialsPerWorkload = 3
	// learnWindow is the per-trial sampling window during learning.
	// Learning monitors the full event catalog, which oversubscribes
	// the HPC registers; long windows average the multiplexing noise
	// out. Runtime lookups use the short 10 s window on the few
	// selected events instead.
	learnWindow = 5 * time.Minute
	// defaultMinK and defaultMaxK bound the automatic cluster count
	// search.
	defaultMinK, defaultMaxK = 2, 6
	// defaultClassifier is the runtime model, the paper's J48.
	defaultClassifier = "c45"
	// certaintyThreshold is the cache-hit confidence floor.
	certaintyThreshold = 0.6
	// noveltyTolerance and minNoveltyRadius are LearnConfig's default
	// NoveltyTolerance and MinNoveltyRadius.
	noveltyTolerance = 2.0
	minNoveltyRadius = 1.0
)

func (c *LearnConfig) defaults() error {
	if c.Profiler == nil {
		return errors.New("core: LearnConfig.Profiler must be set")
	}
	if c.Tuner == nil {
		return errors.New("core: LearnConfig.Tuner must be set")
	}
	if len(c.Workloads) == 0 {
		return errors.New("core: no workloads to learn from")
	}
	if c.Rng == nil {
		return errors.New("core: LearnConfig.Rng must be set")
	}
	if c.MinK <= 0 {
		c.MinK = defaultMinK
	}
	if c.MaxK <= 0 {
		c.MaxK = defaultMaxK
	}
	if c.MinK > c.MaxK {
		return fmt.Errorf("core: LearnConfig.MinK %d exceeds MaxK %d", c.MinK, c.MaxK)
	}
	if c.Classifier == "" {
		c.Classifier = defaultClassifier
	}
	if c.Classifier != "c45" && c.Classifier != "bayes" {
		return fmt.Errorf("core: unknown classifier %q", c.Classifier)
	}
	if c.NoveltyTolerance == 0 {
		c.NoveltyTolerance = noveltyTolerance
	}
	if c.MinNoveltyRadius == 0 {
		c.MinNoveltyRadius = minNoveltyRadius
	}
	return nil
}

// LearnReport summarizes the learning phase.
type LearnReport struct {
	// NumWorkloads is the number of distinct workloads profiled.
	NumWorkloads int
	// Classes is the number of workload classes discovered.
	Classes int
	// SignatureEvents is the selected metric tuple.
	SignatureEvents []metrics.Event
	// CFSMerit is the merit of the selected subset.
	CFSMerit float64
	// WorkloadClass maps each input workload to its class (majority
	// over trials).
	WorkloadClass []int
	// Representatives maps each class to the index of the workload
	// tuned for it (nearest to the centroid).
	Representatives []int
	// Allocations maps each class to its tuned allocation.
	Allocations []cloud.Allocation
	// TuningTime is the total time the Tuner spent, i.e. the
	// overhead clustering amortizes (one tuning run per class, not
	// per workload).
	TuningTime time.Duration
	// ClassifierAccuracy is the cross-validated accuracy of the
	// runtime classifier on the training signatures.
	ClassifierAccuracy float64
}

// Learn runs the learning phase and returns the populated repository.
func Learn(cfg LearnConfig) (*Repository, *LearnReport, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	allEvents := metrics.AllEvents()

	// Phase 1 — profile everything: "DejaVu collects the low-level
	// metrics... we form the dataset by collecting all HPC and
	// xentop-reported metric values."
	full := ml.NewDataset(eventNames(allEvents))
	for _, w := range cfg.Workloads {
		sigs, err := cfg.Profiler.ProfileN(w, allEvents, trialsPerWorkload, learnWindow)
		if err != nil {
			return nil, nil, fmt.Errorf("core: profiling %v: %w", w, err)
		}
		for _, s := range sigs {
			if err := full.Add(s.Values, 0); err != nil {
				return nil, nil, err
			}
		}
	}

	// Phase 2 — preliminary clustering on all metrics to obtain
	// labels for feature selection. Mean normalization (not
	// standardization) is essential here: standardizing would blow
	// the measurement noise of workload-independent counters up to
	// unit variance and swamp the real structure across the 60+
	// attribute dimensions.
	fullN := ml.MeanNormalize(full)
	pre, err := ml.KMeansAuto(fullN.X, cfg.MinK, cfg.MaxK, ml.KMeansConfig{Rng: cfg.Rng, Workers: cfg.Workers})
	if err != nil {
		return nil, nil, fmt.Errorf("core: preliminary clustering: %w", err)
	}
	for i := range fullN.Y {
		fullN.Y[i] = pre.Assignments[i]
	}

	// Phase 3 — CFS feature selection (the paper's CfsSubsetEval +
	// GreedyStepwise) to pick the signature metrics.
	cfsRes, err := ml.CFSSelect(fullN)
	if err != nil {
		return nil, nil, fmt.Errorf("core: feature selection: %w", err)
	}
	sigEvents := make([]metrics.Event, len(cfsRes.Selected))
	for i, idx := range cfsRes.Selected {
		sigEvents[i] = allEvents[idx]
	}

	// Phase 4 — final clustering in signature space.
	proj, err := full.Project(cfsRes.Selected)
	if err != nil {
		return nil, nil, err
	}
	std, err := ml.FitStandardizer(proj)
	if err != nil {
		return nil, nil, err
	}
	projZ := std.TransformDataset(proj)
	clusters, err := ml.KMeansAuto(projZ.X, cfg.MinK, cfg.MaxK, ml.KMeansConfig{Rng: cfg.Rng, Workers: cfg.Workers})
	if err != nil {
		return nil, nil, fmt.Errorf("core: clustering: %w", err)
	}
	for i := range projZ.Y {
		projZ.Y[i] = clusters.Assignments[i]
	}

	// Novelty radii: per class, max training distance to centroid,
	// inflated and floored.
	radii := make([]float64, clusters.K)
	for i, row := range projZ.X {
		c := clusters.Assignments[i]
		if d := ml.EuclideanDistance(row, clusters.Centroids[c]); d > radii[c] {
			radii[c] = d
		}
	}
	for c := range radii {
		radii[c] *= cfg.NoveltyTolerance
		if radii[c] < cfg.MinNoveltyRadius {
			radii[c] = cfg.MinNoveltyRadius
		}
	}

	// Phase 5 — train the runtime classifier on labeled signatures.
	train := trainFunc(cfg.Classifier)
	clf, err := train(projZ)
	if err != nil {
		return nil, nil, fmt.Errorf("core: training classifier: %w", err)
	}
	accuracy := 1.0
	if projZ.Len() >= 10 {
		if cm, err := ml.CrossValidate(projZ, 5, train, cfg.Rng); err == nil {
			accuracy = cm.Accuracy()
		}
	}

	repo, err := NewRepository(sigEvents, std, clf, clusters.Centroids, radii, certaintyThreshold)
	if err != nil {
		return nil, nil, err
	}

	// Phase 6 — tune once per class, using the workload whose
	// signature row sits closest to the class centroid ("it typically
	// chooses the instance that is closest to the cluster's
	// centroid").
	nearestRows := ml.NearestRowToCentroid(projZ.X, clusters)
	report := &LearnReport{
		NumWorkloads:    len(cfg.Workloads),
		Classes:         clusters.K,
		SignatureEvents: sigEvents,
		CFSMerit:        cfsRes.Merit,
		Representatives: make([]int, clusters.K),
		Allocations:     make([]cloud.Allocation, clusters.K),
	}
	for class, rowIdx := range nearestRows {
		if rowIdx < 0 {
			return nil, nil, fmt.Errorf("core: class %d has no members", class)
		}
		wIdx := rowIdx / trialsPerWorkload
		report.Representatives[class] = wIdx
		alloc, err := cfg.Tuner.Tune(cfg.Workloads[wIdx], 0)
		if err != nil {
			return nil, nil, fmt.Errorf("core: tuning class %d: %w", class, err)
		}
		report.TuningTime += cfg.Tuner.Duration()
		if err := repo.Put(class, 0, alloc); err != nil {
			return nil, nil, err
		}
		report.Allocations[class] = alloc
	}

	// Per-workload class via majority vote over its trials.
	report.WorkloadClass = make([]int, len(cfg.Workloads))
	for wIdx := range cfg.Workloads {
		votes := make(map[int]int)
		for t := 0; t < trialsPerWorkload; t++ {
			votes[clusters.Assignments[wIdx*trialsPerWorkload+t]]++
		}
		best, bestN := 0, -1
		for c, n := range votes {
			if n > bestN {
				best, bestN = c, n
			}
		}
		report.WorkloadClass[wIdx] = best
	}
	report.ClassifierAccuracy = accuracy
	return repo, report, nil
}

// WorkloadsFromTrace converts a load trace (already scaled to client
// counts) into one workload per sample with the given mix — the
// "24 workloads (an instance per hour)" the learning phase consumes.
func WorkloadsFromTrace(tr *trace.Trace, mix services.Mix) []services.Workload {
	out := make([]services.Workload, tr.Len())
	for i, clients := range tr.Loads {
		out[i] = services.Workload{Clients: clients, Mix: mix}
	}
	return out
}

func trainFunc(kind string) ml.TrainFunc {
	if kind == "bayes" {
		return func(d *ml.Dataset) (ml.Classifier, error) { return ml.NewNaiveBayes(d) }
	}
	return func(d *ml.Dataset) (ml.Classifier, error) { return ml.NewC45(d) }
}

func eventNames(evs []metrics.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = string(ev)
	}
	return out
}
