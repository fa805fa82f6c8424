package core

import (
	"errors"
	"time"

	"repro/internal/services"
	"repro/internal/sim"
)

// Relearner completes the §3.5 staleness loop around a Controller:
// when the repository repeatedly fails to classify ("the workload has
// changed over time and the current clustering is no longer
// relevant"), it re-runs the learning phase — profiling, clustering,
// and tuning — over the recently observed workloads and swaps the
// fresh repository in. While re-learning runs, production stays at
// full capacity (the controller's unforeseen fallback already put it
// there), so performance is protected at the price of cost.
//
// Re-learning rounds reuse the full parallel learning pipeline: the
// Learn template's Workers setting (and its derived-seed determinism)
// carries over unchanged, so a re-clustering round costs the same
// wall-clock as the initial learning phase and yields the same result
// for the same RNG state no matter how many workers run it.
type Relearner struct {
	// Controller is the wrapped DejaVu runtime controller.
	Controller *Controller
	// Learn is the learning-phase template; Workloads is replaced
	// with the recently observed ones on every re-learning round.
	Learn LearnConfig
	// MinWorkloads is how many distinct recent workloads must be on
	// record before re-learning makes sense (default 12).
	MinWorkloads int
	// MaxWorkloads bounds the observation window (default 24, one
	// day of hourly workloads).
	MaxWorkloads int

	recent       []services.Workload
	lastRecorded time.Duration
	busyUntil    time.Duration
	pendingRepo  *Repository
	relearns     int
}

// NewRelearner wraps a controller with the re-clustering loop.
func NewRelearner(ctl *Controller, learnTemplate LearnConfig) (*Relearner, error) {
	if ctl == nil {
		return nil, errors.New("core: nil controller")
	}
	if learnTemplate.Profiler == nil || learnTemplate.Tuner == nil || learnTemplate.Rng == nil {
		return nil, errors.New("core: learn template needs Profiler, Tuner, and Rng")
	}
	return &Relearner{
		Controller:   ctl,
		Learn:        learnTemplate,
		MinWorkloads: 12,
		MaxWorkloads: 24,
		lastRecorded: -1 << 62,
		busyUntil:    -1,
	}, nil
}

// Name implements sim.Controller.
func (r *Relearner) Name() string { return "dejavu-relearn" }

// Step implements sim.Controller.
func (r *Relearner) Step(obs *sim.Observation) (sim.Action, error) {
	// Keep a sliding window of recent hourly workloads — the
	// re-learning corpus.
	if obs.Now-r.lastRecorded >= profileInterval {
		r.lastRecorded = obs.Now
		r.recent = append(r.recent, obs.Workload)
		if len(r.recent) > r.MaxWorkloads {
			r.recent = r.recent[len(r.recent)-r.MaxWorkloads:]
		}
	}

	// Finish an in-flight re-learning round.
	if r.pendingRepo != nil && obs.Now >= r.busyUntil {
		if err := r.Controller.ReplaceRepository(r.pendingRepo); err != nil {
			return sim.Action{}, err
		}
		r.pendingRepo = nil
	}

	// Trigger a new round when the clustering is stale. The learning
	// itself happens in the profiling environment; production keeps
	// running at the full-capacity fallback until the new repository
	// is ready.
	if r.pendingRepo == nil && obs.Now >= r.busyUntil &&
		r.Controller.NeedsRelearning() && len(r.recent) >= r.MinWorkloads {
		cfg := r.Learn
		cfg.Workloads = append([]services.Workload(nil), r.recent...)
		repo, report, err := Learn(cfg)
		if err != nil {
			return sim.Action{}, err
		}
		r.relearns++
		r.pendingRepo = repo
		// The new repository becomes usable only after the
		// profiling and tuning work has actually been done:
		// one signature window per workload trial plus the tuner
		// runs.
		profiling := time.Duration(len(cfg.Workloads)*trialsPerWorkload) * learnWindow
		r.busyUntil = obs.Now + profiling + report.TuningTime
	}

	// The workload window, busyUntil and the trigger above are checked
	// per call, so the inner controller's wake hint must not reach the
	// engine: the Relearner is called every step.
	act, err := r.Controller.Step(obs)
	act.Wake, act.WakeOnViolation = 0, false
	return act, err
}

// Relearns reports how many re-clustering rounds ran.
func (r *Relearner) Relearns() int { return r.relearns }

var _ sim.Controller = (*Relearner)(nil)
