package main

import (
	"fmt"
	"runtime"
	"time"
)

// sizes fixes the work of one pass of every workload. Work is a fixed
// count, never a fixed time: two commits compared with this benchmark
// do identical work per pass, and --seconds only chooses how many
// passes a run takes its medians over.
type sizes struct {
	LocalVMs      int `json:"fleet_local_vms"`
	RemoteVMs     int `json:"fleet_remote_vms"`
	TierVMs       int `json:"fleet_tier_vms"`
	TraceVMs      int `json:"trace_vms"`
	ServeRequests int `json:"serve_requests"`
	AdaptSigs     int `json:"adapt_signatures"`
	// Passes is the timed pass count per workload when --seconds is 0.
	Passes map[string]int `json:"passes"`
	// ResidualBound is how far the decision budget's layer medians may
	// fall from the end-to-end median they are meant to add up to.
	ResidualBound float64 `json:"residual_bound"`
}

// fullSizes were chosen on nproc=2 so that one timed pass takes
// 0.25–3 s (see README.md, "How each size was chosen").
func fullSizes() sizes {
	return sizes{
		LocalVMs: 10000, RemoteVMs: 4000, TierVMs: 2000, TraceVMs: 500,
		ServeRequests: 600000, AdaptSigs: 6000,
		Passes:        map[string]int{"fleet_local": 21, "fleet_remote": 9, "fleet_tier": 7, "serve_batch16": 3, "adapt": 25},
		ResidualBound: 0.25,
	}
}

// toySizes is the self-test's shape: every workload, one pass, seconds
// of wall time in total. Medians of a few hundred round trips on a busy
// test machine are loose, so the budget only has to be in the right
// place, not closed.
func toySizes() sizes {
	return sizes{
		LocalVMs: 50, RemoteVMs: 50, TierVMs: 50, TraceVMs: 50,
		ServeRequests: 2000, AdaptSigs: 300,
		Passes:        map[string]int{"fleet_local": 1, "fleet_remote": 1, "fleet_tier": 1, "serve_batch16": 1, "adapt": 1},
		ResidualBound: 2,
	}
}

// callers is the closed loop's width: fleet workers and serve
// connections, each waiting for its reply before the next request.
func callers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// env is one workload run's context.
type env struct {
	seed    int64
	seconds float64 // 0 = the workload's default pass count
	size    sizes
	callers int
	expect  *expected
	spans   *spanRing // non-nil on a traced run: the traced pass and the budget follow the timed passes

	rec       *recorder
	attempted int64
	failed    int64
	checks    []string
}

// pass runs one pass of a workload: set-up, a timed window of fixed
// work, teardown. It returns the window and what standing the system
// up and tearing it down took; verification and bookkeeping are
// neither. warm marks the untimed warm-up pass, which runs the heavier
// correctness checks and records no timing of its own.
type pass func(warm bool) (setup, window time.Duration, err error)

// runPasses drives a workload's warm-up pass and its timed passes.
// Every pass sets the system up afresh, so setup_s is the median of as
// many set-ups as there are passes.
func (e *env) runPasses(name string, p pass) error {
	var timed time.Duration
	for n := 0; ; n++ {
		runtime.GC() // each pass starts from a collected heap, so a pass does not pay its predecessor's garbage
		setup, window, err := p(n == 0)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", name, n, err)
		}
		e.rec.add("setup_s", setup.Seconds())
		if n == 0 {
			continue
		}
		timed += window
		if e.seconds > 0 {
			if timed.Seconds() >= e.seconds && n >= 3 {
				return nil
			}
		} else if n >= e.size.Passes[name] {
			return nil
		}
	}
}

// check records a passed correctness check, or fails the run.
func (e *env) check(ok bool, format string, args ...any) error {
	if !ok {
		return fmt.Errorf("check failed: "+format, args...)
	}
	e.passed(format, args...)
	return nil
}

// passed records, once, a check that a failure elsewhere would have
// stopped the run before reaching.
func (e *env) passed(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	for _, c := range e.checks {
		if c == msg {
			return
		}
	}
	e.checks = append(e.checks, msg)
}

// workload is one named traffic shape.
type workload struct {
	name string
	why  string
	run  func(e *env) error
}

var workloads = []workload{
	{"fleet_local", "in-process fleet: the engine's own speed, and the workload a decision-plane change must not move", runFleetLocal},
	{"fleet_remote", "same fleet driving one dejavud over the TCP stream plane, batch-1 sync round trips: the remote tax", runFleetRemote},
	{"fleet_tier", "same fleet through the decision front over 3 replicas: the replication tax, HTTP hop to the front included", runFleetTier},
	{"serve_batch16", "batched, pipelined lookups on raw streams: codec+classify+lookup CPU dominates instead of syscalls", runServe},
	{"adapt", "relearn 6000 signatures, install through the front, first lookup: time-to-adapt, the plane's write path", runAdapt},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is one workload's digest.
type result struct {
	Workload  string         `json:"workload"`
	Why       string         `json:"why"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Checks    []string       `json:"checks"`
	WallS     float64        `json:"wall_s"`
	Metrics   []namedSummary `json:"metrics"`
}

// runWorkload runs one workload in a fresh environment and enforces
// the per-workload hygiene: no goroutine left behind.
func runWorkload(w workload, base env) (*result, error) {
	e := base
	e.rec = newRecorder()
	e.checks = nil
	e.attempted, e.failed = 0, 0
	guard := newGoroutineGuard()
	start := time.Now()
	if err := w.run(&e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := guard.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if e.attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", w.name)
	}
	e.rec.set("failed_frac", float64(e.failed)/float64(e.attempted))
	return &result{
		Workload: w.name, Why: w.why, Attempted: e.attempted, Failed: e.failed,
		Checks: e.checks, WallS: time.Since(start).Seconds(),
		Metrics: e.rec.summaries(),
	}, nil
}
