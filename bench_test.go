// Package repro_test holds the top-level benchmark harness: one
// benchmark per paper table/figure (regenerating its data and
// reporting the headline metric), the design-choice ablations called
// out in DESIGN.md, and micro-benchmarks of the hot paths (signature
// collection, classification, cache lookup, proxy throughput).
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// benchOpts keeps figure benchmarks fast while exercising the full
// pipeline; cmd/dejavu-exp runs the full 7-day windows.
var benchOpts = experiments.Options{Seed: 42, Days: 3}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.ViolationFraction, "violation%")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Benchmarks[0].Separability, "separability")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Classes), "classes")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Overlap), "paper-overlap")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.DejaVuSavings, "savings%")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.DejaVuSavings, "savings%")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup, "speedup-x")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Savings, "savings%")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Savings, "savings%")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.ViolationFrOff-100*r.ViolationFrOn, "violation-delta%")
	}
}

func BenchmarkProxyOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ProxyOverhead(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Overhead.Microseconds()), "overhead-us")
	}
}

func BenchmarkCostSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CostSummary(experiments.Options{Seed: 42, Days: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AnnualSavings100, "annual-$-100inst")
	}
}

// --- Fleet control plane -------------------------------------------

// BenchmarkFleet measures control-plane throughput (simulation
// steps/sec) and shared-repository effectiveness as the fleet grows
// from 1 to 100 VMs: learning and tuning costs are paid once per
// service template, so steps/sec should scale with cores and the
// hit rate should not degrade with N.
func BenchmarkFleet(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				specs, err := sim.GenerateScenario(sim.ScenarioConfig{
					Rng:         rand.New(rand.NewSource(42)),
					VMs:         n,
					Days:        1,
					Homogeneous: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := fleet.Run(fleet.Config{Specs: specs})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.StepsPerSecond(), "steps/s")
				b.ReportMetric(100*res.HitRate(), "repo-hit%")
				b.ReportMetric(res.TotalCost(), "fleet-$")
			}
		})
	}
}

// BenchmarkFleetHeterogeneous runs the mixed-template fleet with
// correlated interference — the adversarial configuration where three
// repositories and tuning caches are under concurrent mixed load.
func BenchmarkFleetHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs, err := sim.GenerateScenario(sim.ScenarioConfig{
			Rng:          rand.New(rand.NewSource(42)),
			VMs:          30,
			Days:         1,
			Interference: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := fleet.Run(fleet.Config{Specs: specs, InterferenceDetection: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.StepsPerSecond(), "steps/s")
		b.ReportMetric(100*res.HitRate(), "repo-hit%")
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------

// learnSetup builds the learning inputs shared by the ablations.
func learnSetup(b *testing.B, seed int64) (*services.Cassandra, *core.Profiler, *core.LinearSearchTuner, []services.Workload, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	svc := services.NewCassandra()
	tr := trace.Messenger(trace.SynthConfig{Rng: rng}).ScaleTo(480)
	day0, err := tr.Day(0)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := core.NewProfiler(svc, rng)
	if err != nil {
		b.Fatal(err)
	}
	tuner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		b.Fatal(err)
	}
	return svc, prof, tuner, core.WorkloadsFromTrace(day0, svc.DefaultMix()), rng
}

// BenchmarkAblationAutoK compares automatic cluster-count selection
// (silhouette over k=2..6) against pinning k, measuring learning time
// and reporting the chosen class count.
func BenchmarkAblationAutoK(b *testing.B) {
	for _, fixed := range []int{0, 2, 4, 6} {
		name := "auto"
		if fixed > 0 {
			name = string(rune('0'+fixed)) + "-fixed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, prof, tuner, workloads, rng := learnSetup(b, 42)
				cfg := core.LearnConfig{
					Profiler: prof, Tuner: tuner, Workloads: workloads, Rng: rng,
				}
				if fixed > 0 {
					cfg.MinK, cfg.MaxK = fixed, fixed
				}
				_, report, err := core.Learn(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(report.Classes), "classes")
				b.ReportMetric(report.ClassifierAccuracy, "accuracy")
			}
		})
	}
}

// BenchmarkAblationClassifier compares the C4.5 tree against naive
// Bayes (the paper: "both Bayesian models and decision trees work
// well").
func BenchmarkAblationClassifier(b *testing.B) {
	for _, kind := range []string{"c45", "bayes"} {
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, prof, tuner, workloads, rng := learnSetup(b, 42)
				_, report, err := core.Learn(core.LearnConfig{
					Profiler: prof, Tuner: tuner, Workloads: workloads,
					Classifier: kind, Rng: rng,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(report.ClassifierAccuracy, "accuracy")
			}
		})
	}
}

// BenchmarkAblationCFS contrasts classification on the CFS-selected
// signature against classification on the full 66-metric vector: the
// selected signature is both far cheaper to collect (it fits the HPC
// registers) and at least as accurate.
func BenchmarkAblationCFS(b *testing.B) {
	buildDataset := func(events []metrics.Event, window time.Duration) *ml.Dataset {
		rng := rand.New(rand.NewSource(7))
		svc := services.NewCassandra()
		tr := trace.Messenger(trace.SynthConfig{Rng: rng}).ScaleTo(480)
		day0, _ := tr.Day(0)
		prof, _ := core.NewProfiler(svc, rng)
		names := make([]string, len(events))
		for i, ev := range events {
			names[i] = string(ev)
		}
		d := ml.NewDataset(names)
		for h, w := range core.WorkloadsFromTrace(day0, svc.DefaultMix()) {
			// Ground-truth labels: the four trace levels.
			level := 0
			switch {
			case w.Clients > 400:
				level = 3
			case w.Clients > 250:
				level = 2
			case w.Clients > 100:
				level = 1
			}
			_ = h
			for t := 0; t < 3; t++ {
				sig, err := prof.ProfileWindow(w, events, window)
				if err != nil {
					b.Fatal(err)
				}
				_ = d.Add(sig.Values, level)
			}
		}
		return d
	}
	run := func(b *testing.B, events []metrics.Event) {
		for i := 0; i < b.N; i++ {
			d := buildDataset(events, 10*time.Second)
			rng := rand.New(rand.NewSource(9))
			cm, err := ml.CrossValidate(d, 4, func(tr *ml.Dataset) (ml.Classifier, error) {
				return ml.NewC45(tr)
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(cm.Accuracy(), "accuracy")
			b.ReportMetric(float64(len(events)), "metrics")
		}
	}
	b.Run("signature", func(b *testing.B) {
		run(b, []metrics.Event{metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt})
	})
	b.Run("all-metrics", func(b *testing.B) {
		run(b, metrics.AllEvents())
	})
}

// BenchmarkTypeChange measures the extension experiment: DejaVu vs
// the analytical-model controller under recurring request-mix changes.
func BenchmarkTypeChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TypeChange(experiments.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.ModelRecalibrations), "model-recals")
		b.ReportMetric(100*r.DejaVuCacheHitRate, "dejavu-hit%")
	}
}

// BenchmarkAblationNoveltyRadius runs the novelty-radius study.
func BenchmarkAblationNoveltyRadius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablations(experiments.Options{Seed: 42, Days: 5})
		if err != nil {
			b.Fatal(err)
		}
		caught := 0.0
		for _, row := range r.Novelty {
			if row.SurgeCaught {
				caught++
			}
		}
		b.ReportMetric(caught, "radii-catching-surge")
	}
}

// --- Micro-benchmarks ----------------------------------------------

// BenchmarkMVASolve measures one exact-MVA solve at a realistic
// population, the inner loop of analytical capacity planning.
func BenchmarkMVASolve(b *testing.B) {
	nw := &queueing.Network{Demands: []float64{0.010, 0.025, 0.008}, ThinkTime: 1.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Solve(500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepositorySaveLoad measures persisting and restoring the
// DejaVu cache.
func BenchmarkRepositorySaveLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	svc := services.NewCassandra()
	tr := trace.Messenger(trace.SynthConfig{Rng: rng}).ScaleTo(480)
	day0, _ := tr.Day(0)
	prof, _ := core.NewProfiler(svc, rng)
	tuner, _ := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	repo, _, err := core.Learn(core.LearnConfig{
		Profiler: prof, Tuner: tuner,
		Workloads: core.WorkloadsFromTrace(day0, svc.DefaultMix()),
		Rng:       rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := repo.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := core.LoadRepository(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedTunerHit measures a shared-cache hit, the cost a
// second tenant pays instead of a tuning sweep.
func BenchmarkSharedTunerHit(b *testing.B) {
	cache := core.NewSharedTuningCache()
	svc := services.NewCassandra()
	inner, _ := core.NewScaleOutTuner(svc, cloud.Large, 2, 10)
	shared, err := core.NewSharedTuner(cache, svc, inner)
	if err != nil {
		b.Fatal(err)
	}
	w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
	if _, err := shared.Tune(w, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shared.Tune(w, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansAuto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 96)
	for i := range X {
		X[i] = []float64{float64(i%4)*10 + rng.NormFloat64(), float64(i%4)*-5 + rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.KMeansAuto(X, 2, 6, ml.KMeansConfig{Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansAutoFleetScale times the learning phase's dominant
// cost at fleet-sized signature sets on the pruned + sampled engine.
func BenchmarkKMeansAutoFleetScale(b *testing.B) {
	X := testkit.ClusteredDataset(42, 5000, 6, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ml.KMeansAuto(X, 2, 10, ml.KMeansConfig{Rng: rand.New(rand.NewSource(42))})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.K), "chosen-k")
	}
}

// BenchmarkRelearnFromSignatures times the cold relearn the system
// benchmark's adapt workload times (benchmark/adapt.go): 6 000 × 6
// lattice signatures, k = 2…12, standardize → cluster → radii → C4.5.
func BenchmarkRelearnFromSignatures(b *testing.B) {
	events := []metrics.Event{
		metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt, metrics.EvL2Ads,
		metrics.EvL2St, metrics.EvLoadBlock, metrics.EvXenCPU,
	}
	rows := testkit.LatticeSignatures(42, 6000, len(events), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo, err := core.RelearnFromSignatures(events, rows, core.OnlineRelearnConfig{MaxK: 12, Rng: rng.New(42)})
		if err != nil {
			b.Fatal(err)
		}
		if repo.Classes() != 5 {
			b.Fatalf("relearn chose %d classes, the draw has 5", repo.Classes())
		}
		b.ReportMetric(float64(repo.Classes()), "classes")
	}
}

func BenchmarkC45Train(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d := ml.NewDataset([]string{"a", "b", "c"})
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 10
		_ = d.Add([]float64{x, rng.Float64(), rng.Float64()}, int(x/2.5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.NewC45(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFSSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	names := make([]string, 66)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	d := ml.NewDataset(names)
	for i := 0; i < 72; i++ {
		class := i % 4
		row := make([]float64, 66)
		for j := range row {
			if j < 6 {
				row[j] = float64(class)*10 + rng.NormFloat64()
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		_ = d.Add(row, class)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.CFSSelect(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatureCollection measures the runtime fast path: one
// ~10 s signature sample (simulated, so wall time is the compute
// cost only). The parent benchmark is the ProfileInto path the
// controller actually runs (allocation-free); /legacy is the
// map-based Profile API kept for compatibility.
func BenchmarkSignatureCollection(b *testing.B) {
	setup := func(b *testing.B) (*core.Profiler, []metrics.Event, services.Workload) {
		b.Helper()
		rng := rand.New(rand.NewSource(4))
		svc := services.NewCassandra()
		prof, err := core.NewProfiler(svc, rng)
		if err != nil {
			b.Fatal(err)
		}
		events := []metrics.Event{metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt}
		return prof, events, services.Workload{Clients: 300, Mix: svc.DefaultMix()}
	}
	b.Run("into", func(b *testing.B) {
		prof, events, w := setup(b)
		var sig core.Signature
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := prof.ProfileInto(w, events, prof.Window, &sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		prof, events, w := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prof.Profile(w, events); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRepositoryLookup measures the cache lookup: classify a
// signature and fetch the allocation — the paper's "classification
// time practically negligible".
func BenchmarkRepositoryLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	svc := services.NewCassandra()
	tr := trace.Messenger(trace.SynthConfig{Rng: rng}).ScaleTo(480)
	day0, _ := tr.Day(0)
	prof, _ := core.NewProfiler(svc, rng)
	tuner, _ := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	repo, _, err := core.Learn(core.LearnConfig{
		Profiler: prof, Tuner: tuner,
		Workloads: core.WorkloadsFromTrace(day0, svc.DefaultMix()),
		Rng:       rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	sig, err := prof.Profile(services.Workload{Clients: 300, Mix: svc.DefaultMix()}, repo.Events())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Lookup(sig, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServicePerf measures one queueing-model evaluation, the
// inner loop of the simulation engine: the memoized path the engine
// runs per step (parent), and the direct model evaluation (/direct).
func BenchmarkServicePerf(b *testing.B) {
	svc := services.NewCassandra()
	w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
	b.Run("memo", func(b *testing.B) {
		memo := services.NewPerfMemo(svc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = memo.Perf(&w, 7)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = svc.Perf(w, 7)
		}
	})
}

// BenchmarkMVAMemoized measures the memoized solver against the same
// network/population as BenchmarkMVASolve: steady-state repeated
// solves collapse to a memo hit plus a defensive result copy.
func BenchmarkMVAMemoized(b *testing.B) {
	nw := &queueing.Network{Demands: []float64{0.010, 0.025, 0.008}, ThinkTime: 1.5}
	ms := queueing.NewMemoSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ms.Solve(nw, 500); err != nil {
			b.Fatal(err)
		}
	}
}
