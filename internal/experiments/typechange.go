package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TypeChangeResult is an extension experiment beyond the paper's
// figures, exercising its §1/§2 argument directly: analytical models
// "require time-consuming re-calibration and re-validation whenever
// workloads change appreciably", while DejaVu recognizes recurring
// workload *types* from their signatures and reuses cached
// allocations. The request mix of a Cassandra service alternates
// between the update-heavy and read-mostly YCSB mixes (which differ in
// per-request demand); both controllers see the same load.
type TypeChangeResult struct {
	// DejaVu vs model-based controller outcomes.
	DejaVuViolationFr     float64
	ModelViolationFr      float64
	DejaVuAdaptations     int
	DejaVuMeanAdaptSecs   float64
	ModelRecalibrations   int
	ModelCalibrationCost  time.Duration
	DejaVuCacheHitRate    float64
	DejaVuRuntimeTunings  int
	MixSwitches           int
	DejaVuCost, ModelCost float64
}

// typeChangeMixSchedule alternates the mix every 4 hours.
func typeChangeMixSchedule(svc *services.Cassandra) func(time.Duration) services.Mix {
	heavy := svc.DefaultMix()
	light := svc.ReadMostlyMix()
	return func(now time.Duration) services.Mix {
		if int(now/(4*time.Hour))%2 == 0 {
			return heavy
		}
		return light
	}
}

// TypeChange runs the experiment over two reuse days.
func TypeChange(opts Options) (*TypeChangeResult, error) {
	rng := opts.rng()
	svc := services.NewCassandra()
	mixAt := typeChangeMixSchedule(svc)

	// Steady volume at the plateau level; only the type changes.
	days := 3
	loads := make([]float64, days*24)
	for i := range loads {
		loads[i] = 300
	}
	tr := &trace.Trace{Name: "typechange", Step: time.Hour, Loads: loads}

	// Learning day: the controller sees both mixes during learning,
	// exactly like the trace replays them.
	day0, err := tr.Day(0)
	if err != nil {
		return nil, err
	}
	workloads := core.WorkloadsFromTrace(day0, svc.DefaultMix())
	for h := range workloads {
		workloads[h].Mix = mixAt(time.Duration(h) * time.Hour)
	}

	prof, err := core.NewProfiler(svc, rng)
	if err != nil {
		return nil, err
	}
	tuner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		return nil, err
	}
	repo, _, err := core.Learn(core.LearnConfig{
		Profiler:  prof,
		Tuner:     tuner,
		Workloads: workloads,
		Rng:       rng,
	})
	if err != nil {
		return nil, err
	}
	dejavu, err := core.NewController(core.ControllerConfig{
		Repository: repo,
		Profiler:   prof,
		Tuner:      tuner,
		Service:    svc,
	})
	if err != nil {
		return nil, err
	}
	model, err := baseline.NewModelBased(cloud.Large, svc.MinInstances, svc.MaxInstances, svc.SLO())
	if err != nil {
		return nil, err
	}

	window, err := tr.Slice(24, days*24)
	if err != nil {
		return nil, err
	}
	// The window's mix schedule: one entry per 4-hour block, read off
	// the mixAt the learning day used, a day in.
	var shifts []sim.MixShift
	for at := time.Duration(0); at < window.Duration(); at += 4 * time.Hour {
		shifts = append(shifts, sim.MixShift{At: at, Mix: mixAt(24*time.Hour + at)})
	}
	run := func(ctl sim.Controller) (*sim.Result, error) {
		return sim.Run(sim.Config{
			Service:    svc,
			Trace:      window,
			Controller: ctl,
			Initial:    svc.MaxAllocation(),
			MixShifts:  shifts,
		})
	}
	dvRes, err := run(dejavu)
	if err != nil {
		return nil, err
	}
	mbRes, err := run(model)
	if err != nil {
		return nil, err
	}

	out := &TypeChangeResult{
		DejaVuViolationFr:    dvRes.SLOViolationFraction,
		ModelViolationFr:     mbRes.SLOViolationFraction,
		DejaVuAdaptations:    len(dejavu.AdaptationTimes()),
		ModelRecalibrations:  model.Recalibrations(),
		ModelCalibrationCost: time.Duration(model.Recalibrations()+1) * model.CalibrationTime,
		DejaVuCacheHitRate:   repo.HitRate(),
		DejaVuRuntimeTunings: dejavu.TuningCount(),
		MixSwitches:          (days - 1) * 6, // every 4h
		DejaVuCost:           dvRes.TotalCost,
		ModelCost:            mbRes.TotalCost,
	}
	if times := dejavu.AdaptationTimes(); len(times) > 0 {
		total := 0.0
		for _, d := range times {
			total += d.Seconds()
		}
		out.DejaVuMeanAdaptSecs = total / float64(len(times))
	}
	return out, nil
}

// Render writes the experiment as text.
func (r *TypeChangeResult) Render(w io.Writer) {
	fmt.Fprintln(w, "=== Extension: recurring workload-type changes (DejaVu vs analytical model) ===")
	fmt.Fprintf(w, "request mix alternates every 4h (%d switches), volume constant\n", r.MixSwitches)
	fmt.Fprintf(w, "%-28s %12s %12s\n", "", "DejaVu", "ModelBased")
	fmt.Fprintf(w, "%-28s %11.1f%% %11.1f%%\n", "SLO violations", 100*r.DejaVuViolationFr, 100*r.ModelViolationFr)
	fmt.Fprintf(w, "%-28s %11.2f$ %11.2f$\n", "provisioning cost", r.DejaVuCost, r.ModelCost)
	fmt.Fprintf(w, "dejavu: %d adaptations, mean %.1fs, cache hit rate %.0f%%, %d runtime tunings\n",
		r.DejaVuAdaptations, r.DejaVuMeanAdaptSecs, 100*r.DejaVuCacheHitRate, r.DejaVuRuntimeTunings)
	fmt.Fprintf(w, "model-based: %d drift recalibrations, ~%v total model-building time\n",
		r.ModelRecalibrations, r.ModelCalibrationCost)
}
