package core_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The DejaVu loop in miniature: learn workload classes from one
// synthetic day of Cassandra traffic, tune one allocation per class,
// then classify fresh workloads and reuse the cached allocations,
// falling back to full capacity for a workload never seen before.
func Example() {
	rng := rand.New(rand.NewSource(1))

	// The service under management: a simulated Cassandra cluster with
	// a 60 ms latency SLO, scaled out between 2 and 10 large instances.
	svc := services.NewCassandra()

	// One day of diurnal load, scaled so the daily peak needs full
	// capacity.
	learningDay, err := trace.Messenger(trace.SynthConfig{Rng: rng}).ScaleTo(480).Day(0)
	if err != nil {
		log.Fatal(err)
	}

	// The profiler plays the cloned VM in the profiling environment;
	// the tuner is the paper's linear search over allocations.
	profiler, err := core.NewProfiler(svc, rng)
	if err != nil {
		log.Fatal(err)
	}
	tuner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		log.Fatal(err)
	}

	// Learning phase: profile 24 hourly workloads, select signature
	// metrics, cluster into classes, tune once per class.
	repo, report, err := core.Learn(core.LearnConfig{
		Profiler:  profiler,
		Tuner:     tuner,
		Workloads: core.WorkloadsFromTrace(learningDay, svc.DefaultMix()),
		Rng:       rng,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned %d workload classes from %d workloads\n", report.Classes, report.NumWorkloads)
	fmt.Printf("signature metrics: %v\n", report.SignatureEvents)
	for class, alloc := range report.Allocations {
		fmt.Printf("  class %d -> %s\n", class, alloc)
	}
	fmt.Printf("tuning ran %d times instead of %d (%.0fx less tuning)\n",
		report.Classes, report.NumWorkloads, float64(report.NumWorkloads)/float64(report.Classes))

	// Runtime: a new workload arrives. Collect its signature, look up
	// the cache, and reuse the allocation.
	for _, clients := range []float64{60, 170, 320, 470, 2500} {
		sig, err := profiler.Profile(services.Workload{Clients: clients, Mix: svc.DefaultMix()}, repo.Events())
		if err != nil {
			log.Fatal(err)
		}
		res, err := repo.Lookup(sig, 0)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case res.Hit:
			fmt.Printf("%4.0f clients -> class %d (certainty %.2f) -> reuse %s\n",
				clients, res.Class, res.Certainty, res.Allocation)
		case res.Unforeseen:
			fmt.Printf("%4.0f clients -> unforeseen workload -> full capacity %s\n", clients, svc.MaxAllocation())
		default:
			fmt.Printf("%4.0f clients -> class %d but no cached allocation -> tune\n", clients, res.Class)
		}
	}
	fmt.Printf("cache hit rate: %.0f%%\n", 100*repo.HitRate())
	// Output:
	// learned 4 workload classes from 24 workloads
	// signature metrics: [busq_empty]
	//   class 0 -> 4 x large
	//   class 1 -> 9 x large
	//   class 2 -> 7 x large
	//   class 3 -> 2 x large
	// tuning ran 4 times instead of 24 (6x less tuning)
	//   60 clients -> class 3 (certainty 1.00) -> reuse 2 x large
	//  170 clients -> class 0 (certainty 1.00) -> reuse 4 x large
	//  320 clients -> class 2 (certainty 1.00) -> reuse 7 x large
	//  470 clients -> class 1 (certainty 1.00) -> reuse 9 x large
	// 2500 clients -> unforeseen workload -> full capacity 10 x large
	// cache hit rate: 80%
}

// learnWeek learns on day one of a week of load and returns the
// repository, its controller, and days two through seven.
func learnWeek(svc services.Service, week *trace.Trace, tuner core.Tuner, rng *rand.Rand, detect bool) (*core.Repository, *core.Controller, *trace.Trace, []services.Workload) {
	day0, err := week.Day(0)
	if err != nil {
		log.Fatal(err)
	}
	profiler, err := core.NewProfiler(svc, rng)
	if err != nil {
		log.Fatal(err)
	}
	workloads := core.WorkloadsFromTrace(day0, svc.DefaultMix())
	repo, _, err := core.Learn(core.LearnConfig{Profiler: profiler, Tuner: tuner, Workloads: workloads, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := core.NewController(core.ControllerConfig{
		Repository: repo, Profiler: profiler, Tuner: tuner, Service: svc, InterferenceDetection: detect,
	})
	if err != nil {
		log.Fatal(err)
	}
	reuse, err := week.Slice(24, week.Len())
	if err != nil {
		log.Fatal(err)
	}
	return repo, ctl, reuse, workloads
}

func run(cfg sim.Config) *sim.Result {
	cfg.Initial = cfg.Service.MaxAllocation()
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// The paper's Figure 6/7 case study: DejaVu scales a Cassandra cluster
// out and in over six days of Messenger-style load, against the
// Autopilot time-table baseline and fixed full capacity.
func ExampleNewController() {
	rng := rand.New(rand.NewSource(42))
	svc := services.NewCassandra()
	week := trace.Messenger(trace.SynthConfig{Rng: rng, DailyPhaseShift: true}).ScaleTo(480)
	tuner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		log.Fatal(err)
	}
	repo, dejavu, reuse, workloads := learnWeek(svc, week, tuner, rng, false)
	autopilot, err := baseline.LearnAutopilotSchedule(tuner, workloads)
	if err != nil {
		log.Fatal(err)
	}
	dv := run(sim.Config{Service: svc, Trace: reuse, Controller: dejavu})
	ap := run(sim.Config{Service: svc, Trace: reuse, Controller: autopilot})
	fixedCost := sim.FixedMaxCost(svc, reuse)

	fmt.Println("instances every three hours (DejaVu/Autopilot):")
	for day := 0; day < 6; day++ {
		var cells []string
		for h := 0; h < 24; h += 3 {
			idx := (day*24+h)*60 + 30
			cells = append(cells, fmt.Sprintf("%2d/%-2d", dv.Records[idx].Alloc.Count, ap.Records[idx].Alloc.Count))
		}
		fmt.Printf("day %d: %s\n", day+2, strings.TrimRight(strings.Join(cells, " "), " "))
	}
	fmt.Printf("cost $%.2f vs $%.2f vs fixed $%.2f\n", dv.TotalCost, ap.TotalCost, fixedCost)
	fmt.Printf("savings vs fixed: %.0f%% vs %.0f%%\n", 100*dv.CostSavingsVs(fixedCost), 100*ap.CostSavingsVs(fixedCost))
	fmt.Printf("SLO violations: %.1f%% vs %.1f%%\n", 100*dv.SLOViolationFraction, 100*ap.SLOViolationFraction)
	fmt.Printf("DejaVu: %d allocation changes, cache hit rate %.0f%%, %d unforeseen fallbacks\n",
		dv.Decisions, 100*repo.HitRate(), dejavu.UnforeseenCount())
	// Output:
	// instances every three hours (DejaVu/Autopilot):
	// day 2:  2/2   2/2   4/2   4/4   7/4   7/7  10/10  4/10
	// day 3:  2/2   2/2   4/2   4/4   7/4   7/7  10/10  4/10
	// day 4:  4/2   2/2   2/2   2/4   4/4   4/7   7/10 10/10
	// day 5:  2/2   2/2   2/2   4/4   4/4   7/7  10/10 10/10
	// day 6:  2/2   2/2   2/2   4/4   4/4   7/7   7/10  4/10
	// day 7:  2/2   2/2   2/2   2/4   4/4   4/7   7/10 10/10
	// cost $223.74 vs $234.62 vs fixed $489.60
	// savings vs fixed: 54% vs 52%
	// SLO violations: 0.3% vs 12.4%
	// DejaVu: 31 allocation changes, cache hit rate 100%, 0 unforeseen fallbacks
}

// The paper's Figure 9/10 case study: SPECweb2009's support workload on
// five instances whose type DejaVu switches between large (L) and
// extra-large (X) as HotMail-style load varies, paying for the big type
// only around daily peaks.
func ExampleNewScaleUpTuner() {
	rng := rand.New(rand.NewSource(42))
	svc := services.NewSPECWeb()
	week := trace.HotMail(trace.SynthConfig{Rng: rng, DailyPhaseShift: true}).ScaleTo(350)
	tuner, err := core.NewScaleUpTuner(svc, svc.Instances, []cloud.InstanceType{cloud.Large, cloud.XLarge})
	if err != nil {
		log.Fatal(err)
	}
	_, ctl, reuse, _ := learnWeek(svc, week, tuner, rng, false)
	res := run(sim.Config{Service: svc, Trace: reuse, Controller: ctl})
	for day := 0; day < 6; day++ {
		var types strings.Builder
		for h := 0; h < 24; h++ {
			if res.Records[(day*24+h)*60+59].Alloc.Type == cloud.XLargeID {
				types.WriteByte('X')
			} else {
				types.WriteByte('L')
			}
		}
		fmt.Printf("day %d: %s\n", day+2, types.String())
	}
	fixedCost := sim.FixedMaxCost(svc, reuse)
	fmt.Printf("cost $%.2f vs always-extra-large $%.2f -> savings %.0f%%\n",
		res.TotalCost, fixedCost, 100*res.CostSavingsVs(fixedCost))
	fmt.Printf("QoS violations: %.1f%% of time\n", 100*res.SLOViolationFraction)
	// Output:
	// day 2: LLLLLLLLXXXXLLLLLLLLLLLL
	// day 3: LLLLLLLLXXXXLLLLLLLLLLLL
	// day 4: LLLLLLLLLLLLXXXXLLLLXXLL
	// day 5: LLLLLLLLLLXXXXLLLLLLLLLL
	// day 6: LLLLLLLLLLXXLLLLLLLLLLLL
	// day 7: LLLLLLLLLLLXXLLLLLLLLLLL
	// cost $282.17 vs always-extra-large $489.60 -> savings 42%
	// QoS violations: 0.1% of time
}

// The paper's Figure 11 experiment: co-located tenants steal 10–20 % of
// every VM's capacity in alternating eight-hour blocks. With detection,
// DejaVu computes the interference index, looks up or tunes an
// interference-compensating allocation per bucket, and keeps the SLO by
// provisioning extra instances.
func ExampleControllerConfig_interferenceDetection() {
	contention := func(now time.Duration) float64 {
		if int(now/(8*time.Hour))%2 == 0 {
			return 0.10
		}
		return 0.20
	}
	for _, detect := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		svc := services.NewCassandra()
		week := trace.Messenger(trace.SynthConfig{Rng: rng}).ScaleTo(480)
		tuner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
		if err != nil {
			log.Fatal(err)
		}
		repo, ctl, reuse, _ := learnWeek(svc, week, tuner, rng, detect)
		reuse, err = reuse.Slice(0, 2*24) // two reuse days
		if err != nil {
			log.Fatal(err)
		}
		res := run(sim.Config{Service: svc, Trace: reuse, Controller: ctl, Interference: contention})
		fmt.Printf("detection %v: SLO violations %.1f%% of time, mean instances %.2f\n",
			detect, 100*res.SLOViolationFraction, res.MeanAllocatedInstances())
		if detect {
			fmt.Printf("interference-loop activations: %d; runtime tunings: %d\n", ctl.InterferenceEvents(), ctl.TuningCount())
			buckets := map[int][]string{}
			for _, e := range repo.Snapshot() {
				buckets[e.Class] = append(buckets[e.Class], fmt.Sprintf("%d:%d", e.Bucket, e.Allocation.Count))
			}
			for class := 0; class < repo.Classes(); class++ {
				fmt.Printf("class %d bucket:instances %s\n", class, strings.Join(buckets[class], " "))
			}
		}
	}
	// Output:
	// detection false: SLO violations 40.5% of time, mean instances 4.84
	// detection true: SLO violations 17.3% of time, mean instances 5.27
	// interference-loop activations: 312; runtime tunings: 31
	// class 0 bucket:instances 0:10 2:10 3:10 4:10 5:10 6:10 7:10 8:10 9:10 10:10 11:10 12:10 13:10 14:10 15:10 16:10 17:10 18:10
	// class 1 bucket:instances 0:4 2:4 3:5 4:5 5:5
	// class 2 bucket:instances 0:2 2:2 3:2 4:2 5:2
	// class 3 bucket:instances 0:7 1:7 2:8 3:8 4:9 5:9 6:10
}

// A learned repository survives a management-plane restart: saved as
// JSON and loaded back, its classifier, novelty model and cached
// allocations answer the same lookups.
func ExampleLoadRepository() {
	rng := rand.New(rand.NewSource(5))
	svc := services.NewCassandra()
	week := trace.Messenger(trace.SynthConfig{Rng: rng}).ScaleTo(480)
	tuner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		log.Fatal(err)
	}
	profiler, err := core.NewProfiler(svc, rng)
	if err != nil {
		log.Fatal(err)
	}
	day0, err := week.Day(0)
	if err != nil {
		log.Fatal(err)
	}
	repo, _, err := core.Learn(core.LearnConfig{
		Profiler: profiler, Tuner: tuner, Workloads: core.WorkloadsFromTrace(day0, svc.DefaultMix()), Rng: rng,
	})
	if err != nil {
		log.Fatal(err)
	}
	var blob bytes.Buffer
	if err := repo.Save(&blob); err != nil {
		log.Fatal(err)
	}
	size := blob.Len()
	restored, err := core.LoadRepository(&blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored from %d bytes of JSON: %d classes, %d cached allocations\n",
		size, restored.Classes(), len(restored.Snapshot()))
	sig, err := profiler.Profile(services.Workload{Clients: 320, Mix: svc.DefaultMix()}, restored.Events())
	if err != nil {
		log.Fatal(err)
	}
	res, err := restored.Lookup(sig, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup at 320 clients: hit=%v allocation=%s\n", res.Hit, res.Allocation)
	// Output:
	// restored from 2427 bytes of JSON: 4 classes, 4 cached allocations
	// lookup at 320 clients: hit=true allocation=7 x large
}

// Cross-tenant experience (the paper's §6 future work): two tenants run
// the same service template behind a shared tuning cache, and the
// second tenant's learning phase reuses the first tenant's experiments.
func ExampleNewSharedTuner() {
	day0, err := trace.Messenger(trace.SynthConfig{Rng: rand.New(rand.NewSource(5))}).ScaleTo(480).Day(0)
	if err != nil {
		log.Fatal(err)
	}
	cache := core.NewSharedTuningCache()
	for tenant := 1; tenant <= 2; tenant++ {
		rng := rand.New(rand.NewSource(int64(100 + tenant)))
		svc := services.NewCassandra()
		profiler, err := core.NewProfiler(svc, rng)
		if err != nil {
			log.Fatal(err)
		}
		inner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
		if err != nil {
			log.Fatal(err)
		}
		shared, err := core.NewSharedTuner(cache, svc, inner)
		if err != nil {
			log.Fatal(err)
		}
		before := cache.Misses()
		_, report, err := core.Learn(core.LearnConfig{
			Profiler: profiler, Tuner: shared, Workloads: core.WorkloadsFromTrace(day0, svc.DefaultMix()), Rng: rng,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tenant %d: %d classes, %d real tuning runs, tuning time %v\n",
			tenant, report.Classes, cache.Misses()-before, report.TuningTime)
	}
	fmt.Printf("shared cache: %d cross-tenant hits\n", cache.Hits())
	// Output:
	// tenant 1: 4 classes, 4 real tuning runs, tuning time 57m0s
	// tenant 2: 4 classes, 2 real tuning runs, tuning time 36m0s
	// shared cache: 2 cross-tenant hits
}
