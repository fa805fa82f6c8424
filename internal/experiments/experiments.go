// Package experiments regenerates every table and figure of the
// paper's evaluation (§4) on the simulated substrate: the motivating
// retuning experiment (Fig. 1), signature separability (Fig. 4),
// workload clustering (Fig. 5), the RUBiS signature metrics (Table 1),
// the Cassandra scale-out case studies (Figs. 6-7), adaptation times
// vs RightScale (Fig. 8), the SPECweb scale-up case studies
// (Figs. 9-10), interference detection (Fig. 11), proxy overhead
// (§4.4), and the provisioning-cost summary (§4.5).
//
// Every experiment takes an Options carrying the random seed, returns
// a result struct with the series the paper plots, and can render
// itself as text. Absolute numbers differ from the paper (the
// substrate is a simulator, not EC2); the shapes — who wins, by what
// factor, where crossovers fall — are the reproduction target.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/trace"
)

// CassandraPeakClients scales traces for the scale-out case studies so
// that peak load saturates 10 large instances near the SLO edge (the
// paper scales peak load to what full capacity can serve).
const CassandraPeakClients = 480

// SPECWebPeakClients scales traces for the scale-up case studies so
// that the large type covers off-peak levels and the extra-large type
// is needed at daily peaks.
const SPECWebPeakClients = 350

// Options configures an experiment run.
type Options struct {
	// Seed drives every random component; equal seeds give
	// bit-identical results.
	Seed int64
	// Days truncates the evaluation window (learning day included);
	// 0 means the full 7-day trace.
	Days int
}

func (o Options) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed)) }

func (o Options) days() int {
	if o.Days <= 0 || o.Days > 7 {
		return 7
	}
	return o.Days
}

// buildTrace synthesizes one of the two MSN-style traces by name
// ("hotmail" or "messenger"), scaled to the given peak client count,
// with daily phase drift enabled (the day-to-day variation real traces
// exhibit).
func buildTrace(name string, peak float64, rng *rand.Rand) (*trace.Trace, error) {
	cfg := trace.SynthConfig{Rng: rng, DailyPhaseShift: true}
	switch name {
	case "hotmail":
		return trace.HotMail(cfg).ScaleTo(peak), nil
	case "messenger":
		return trace.Messenger(cfg).ScaleTo(peak), nil
	default:
		return nil, fmt.Errorf("experiments: unknown trace %q", name)
	}
}

// learnedCassandra bundles the artifacts of a Cassandra scale-out
// learning phase.
type learnedCassandra struct {
	svc    *services.Cassandra
	tr     *trace.Trace
	prof   *core.Profiler
	tuner  *core.LinearSearchTuner
	repo   *core.Repository
	report *core.LearnReport
}

// learnCassandra runs the learning phase on the trace's first day.
func learnCassandra(traceName string, opts Options) (*learnedCassandra, error) {
	return learnCassandraPeak(traceName, CassandraPeakClients, opts)
}

// learnCassandraPeak is learnCassandra with an explicit peak client
// count. The interference experiment scales the load down so that
// full capacity retains enough headroom to compensate for 20%
// contention — without headroom no controller could keep the SLO.
func learnCassandraPeak(traceName string, peak float64, opts Options) (*learnedCassandra, error) {
	rng := opts.rng()
	svc := services.NewCassandra()
	tr, err := buildTrace(traceName, peak, rng)
	if err != nil {
		return nil, err
	}
	day0, err := tr.Day(0)
	if err != nil {
		return nil, err
	}
	prof, err := core.NewProfiler(svc, rng)
	if err != nil {
		return nil, err
	}
	tuner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		return nil, err
	}
	repo, report, err := core.Learn(core.LearnConfig{
		Profiler:  prof,
		Tuner:     tuner,
		Workloads: core.WorkloadsFromTrace(day0, svc.DefaultMix()),
		Rng:       rng,
	})
	if err != nil {
		return nil, err
	}
	return &learnedCassandra{
		svc: svc, tr: tr, prof: prof, tuner: tuner,
		repo: repo, report: report,
	}, nil
}

// controller builds a fresh runtime DejaVu controller from the learned
// artifacts.
func (l *learnedCassandra) controller(interference bool) (*core.Controller, error) {
	return core.NewController(core.ControllerConfig{
		Repository:            l.repo,
		Profiler:              l.prof,
		Tuner:                 l.tuner,
		Service:               l.svc,
		InterferenceDetection: interference,
	})
}

// reuseWindow returns the trace slice after the learning day, bounded
// by opts.days().
func (l *learnedCassandra) reuseWindow(opts Options) (*trace.Trace, error) {
	return l.tr.Slice(24, opts.days()*24)
}

// hourly averages a per-minute series into per-hour means.
func hourly(values []float64, perHour int) []float64 {
	if perHour <= 0 {
		perHour = 60
	}
	var out []float64
	for i := 0; i+perHour <= len(values); i += perHour {
		sum := 0.0
		for j := i; j < i+perHour; j++ {
			sum += values[j]
		}
		out = append(out, sum/float64(perHour))
	}
	return out
}

// fseconds formats a duration as seconds with one decimal.
func fseconds(d time.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}

// renderSeries prints an hour-indexed series compactly.
func renderSeries(w io.Writer, name string, xs []float64) {
	fmt.Fprintf(w, "%s:", name)
	for _, x := range xs {
		fmt.Fprintf(w, " %.1f", x)
	}
	fmt.Fprintln(w)
}
