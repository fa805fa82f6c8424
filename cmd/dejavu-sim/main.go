// Command dejavu-sim runs a single trace-driven simulation with a
// chosen resource-management controller and prints per-hour state and
// summary statistics — or, with -fleet N, drives a whole fleet of
// concurrently simulated VMs over shared signature repositories.
//
// Usage:
//
//	dejavu-sim [-trace hotmail|messenger] [-replay FILE.csv]
//	           [-controller dejavu|autopilot|rightscale|fixedmax]
//	           [-days D] [-seed N] [-calm MINUTES] [-interference]
//	dejavu-sim -fleet N [-scenario KIND] [-workers W] [-days D] [-seed N]
//	           [-interference] [-hetero]
//	           [-remote ADDR [-remote-tcp ADDR]]
//
// With -replay, the single-VM load comes from a recorded cluster
// trace CSV ("offset_hours,load" rows, irregular timestamps allowed)
// resampled by zero-order hold instead of a synthetic trace. With
// -scenario, the fleet runs one of the adversarial kinds (baseline,
// flash-crowd, churn, workload-shift, hardware-gen, trace-replay).
//
// With -remote, the fleet installs each template's learned repository
// into the dejavud daemon at ADDR and drives every runtime decision
// over the wire (binary columnar encoding) instead of an
// in-process repository — same seeds, byte-identical decisions.
// Adding -remote-tcp moves the decision path onto the daemon's
// raw-TCP plane (dejavud -tcp-addr) while installs and stats stay on
// the HTTP address.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	traceName := flag.String("trace", "messenger", "load trace: hotmail or messenger")
	replay := flag.String("replay", "", "single-VM mode: replay a recorded cluster-trace CSV (offset_hours,load) instead of a synthetic trace")
	controller := flag.String("controller", "dejavu", "controller: dejavu, autopilot, rightscale, fixedmax")
	days := flag.Int("days", 7, "trace days (learning day included)")
	seed := flag.Int64("seed", 42, "random seed")
	calm := flag.Int("calm", 15, "rightscale resize calm time (minutes)")
	interference := flag.Bool("interference", false, "inject alternating 10%/20% co-located interference")
	fleetN := flag.Int("fleet", 0, "fleet mode: number of concurrently simulated VMs (0 = single-VM mode)")
	workers := flag.Int("workers", 0, "fleet worker-pool size (default GOMAXPROCS)")
	hetero := flag.Bool("hetero", false, "fleet mode: mix cassandra/specweb/rubis templates instead of all-cassandra")
	scenario := flag.String("scenario", "baseline", "fleet mode: scenario kind (baseline, flash-crowd, churn, workload-shift, hardware-gen, trace-replay)")
	remote := flag.String("remote", "", "fleet mode: drive a remote dejavud at this host:port instead of in-process repositories")
	remoteTCP := flag.String("remote-tcp", "", "fleet mode: dejavud raw-TCP decision address (requires -remote for the admin plane)")
	flag.Parse()

	var err error
	if *fleetN < 0 {
		err = fmt.Errorf("-fleet %d: fleet size cannot be negative", *fleetN)
	} else if *fleetN > 0 {
		err = runFleet(os.Stdout, *fleetN, *workers, *days, *seed, *scenario, *interference, *hetero, *remote, *remoteTCP)
	} else if *remote != "" || *remoteTCP != "" {
		err = fmt.Errorf("-remote needs -fleet N")
	} else if *scenario != "baseline" {
		err = fmt.Errorf("-scenario needs -fleet N")
	} else {
		err = run(os.Stdout, *traceName, *replay, *controller, *days, *seed, *calm, *interference)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dejavu-sim:", err)
		os.Exit(1)
	}
}

// runFleet generates an N-VM scenario and runs the fleet control
// plane over it — against in-process repositories, or against a
// remote dejavud when remoteAddr is set.
func runFleet(w io.Writer, vms, workers, days int, seed int64, scenario string, interference, hetero bool, remoteAddr, remoteTCP string) error {
	if days < 2 || days > 7 {
		days = 2
	}
	kind, err := sim.ParseKind(scenario)
	if err != nil {
		return err
	}
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:          rand.New(rand.NewSource(seed)),
		Kind:         kind,
		VMs:          vms,
		Days:         days - 1, // one learning day, the rest evaluated
		Homogeneous:  !hetero,
		Interference: interference,
	})
	if err != nil {
		return err
	}
	if kind != sim.KindBaseline {
		fmt.Fprintf(w, "fleet scenario: %s\n", kind)
	}
	fcfg := fleet.Config{
		Specs:                 specs,
		Workers:               workers,
		InterferenceDetection: interference,
		DiscardRecords:        true, // the report reads only aggregates
	}
	if remoteTCP != "" && remoteAddr == "" {
		return fmt.Errorf("-remote-tcp needs -remote ADDR: repository installs ride the HTTP admin plane")
	}
	if remoteAddr != "" {
		cl, err := client.New(client.Config{Addr: remoteAddr, TCPAddr: remoteTCP})
		if err != nil {
			return err
		}
		defer cl.Close()
		fcfg.Remote = cl
		if remoteTCP != "" {
			fmt.Fprintf(w, "fleet: decisions served by dejavud over raw TCP at %s (admin via %s)\n", remoteTCP, remoteAddr)
		} else {
			fmt.Fprintf(w, "fleet: decisions served by dejavud at %s\n", remoteAddr)
		}
	}
	res, err := fleet.Run(fcfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "fleet: %d VMs, %d evaluated day(s), learning %v, run %v (%.0f steps/s)\n",
		vms, days-1, res.LearningTime.Round(time.Millisecond),
		res.Elapsed.Round(time.Millisecond), res.StepsPerSecond())
	for _, g := range res.Groups {
		fmt.Fprintf(w, "  %-10s %3d VMs  %d classes  %3d repo entries  repo hit-rate %.0f%%  tuner hits/misses %d/%d\n",
			g.Service, g.VMs, g.Classes, g.RepoEntries, 100*g.RepoHitRate, g.TunerHits, g.TunerMisses)
	}
	fmt.Fprintf(w, "fleet repo hit-rate %.0f%%, mean SLO violations %.1f%% of time\n",
		100*res.HitRate(), 100*res.MeanSLOViolationFraction())
	fmt.Fprintln(w, "\nper-tenant bill (top 10):")
	if err := res.Bill.WriteTop(w, 10); err != nil {
		return err
	}
	for _, u := range res.Bill.ByService() {
		fmt.Fprintf(w, "by-service %-10s %10.1f inst-h  $%10.2f\n", u.Service, u.InstanceHours, u.Cost)
	}
	return nil
}

func run(w io.Writer, traceName, replay, controller string, days int, seed int64, calmMin int, interference bool) error {
	rng := rand.New(rand.NewSource(seed))
	svc := services.NewCassandra()

	var tr *trace.Trace
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return err
		}
		rec, err := trace.ReadSamplesCSV(f, replay)
		f.Close()
		if err != nil {
			return err
		}
		tr, err = rec.Resample(time.Hour)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "replay: %d recorded points over %v -> %d hourly steps\n",
			len(rec.Points), rec.Duration().Round(time.Minute), tr.Len())
	} else {
		switch traceName {
		case "hotmail":
			tr = trace.HotMail(trace.SynthConfig{Rng: rng, DailyPhaseShift: true})
		case "messenger":
			tr = trace.Messenger(trace.SynthConfig{Rng: rng, DailyPhaseShift: true})
		default:
			return fmt.Errorf("unknown trace %q", traceName)
		}
	}
	tr = tr.ScaleTo(480)
	if days < 2 || days > 7 {
		days = 7
	}
	if have := tr.Len() / 24; have < days {
		if have < 2 {
			return fmt.Errorf("replayed trace covers %d whole day(s); need at least 2 (1 learning + 1 evaluated)", have)
		}
		days = have
	}

	day0, err := tr.Day(0)
	if err != nil {
		return err
	}
	tuner, err := core.NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		return err
	}

	var ctl sim.Controller
	switch controller {
	case "dejavu":
		prof, err := core.NewProfiler(svc, rng)
		if err != nil {
			return err
		}
		repo, report, err := core.Learn(core.LearnConfig{
			Profiler:  prof,
			Tuner:     tuner,
			Workloads: core.WorkloadsFromTrace(day0, svc.DefaultMix()),
			Rng:       rng,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "learning: %d workload classes, signature %v, classifier accuracy %.2f\n",
			report.Classes, report.SignatureEvents, report.ClassifierAccuracy)
		dv, err := core.NewController(core.ControllerConfig{
			Repository:            repo,
			Profiler:              prof,
			Tuner:                 tuner,
			Service:               svc,
			InterferenceDetection: interference,
		})
		if err != nil {
			return err
		}
		ctl = dv
	case "autopilot":
		ap, err := baseline.LearnAutopilotSchedule(tuner, core.WorkloadsFromTrace(day0, svc.DefaultMix()))
		if err != nil {
			return err
		}
		ctl = ap
	case "rightscale":
		rs, err := baseline.NewRightScale(cloud.Large, svc.MinInstances, svc.MaxInstances,
			time.Duration(calmMin)*time.Minute)
		if err != nil {
			return err
		}
		ctl = rs
	case "fixedmax":
		ctl = baseline.NewFixedMax(svc)
	default:
		return fmt.Errorf("unknown controller %q", controller)
	}

	window, err := tr.Slice(24, days*24)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Service:    svc,
		Trace:      window,
		Controller: ctl,
		Initial:    svc.MaxAllocation(),
	}
	if interference {
		cfg.Interference = func(now time.Duration) float64 {
			if int(now/(8*time.Hour))%2 == 0 {
				return 0.10
			}
			return 0.20
		}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-6s %-10s %-6s %-10s %-8s\n", "hour", "clients", "inst", "latency", "violated")
	for i := 0; i+60 <= len(res.Records); i += 60 {
		bad := 0
		lat, clients := 0.0, 0.0
		for j := i; j < i+60; j++ {
			if res.Records[j].SLOViolated {
				bad++
			}
			lat += res.Records[j].LatencyMs
			clients += res.Records[j].Clients
		}
		r := res.Records[i+59]
		fmt.Fprintf(w, "%-6d %-10.0f %-6d %-10.1f %d/60\n",
			i/60, clients/60, r.Alloc.Count, lat/60, bad)
	}
	fixed := sim.FixedMaxCost(svc, window)
	fmt.Fprintf(w, "\ncontroller: %s over %d days (after 1 learning day)\n", res.Controller, days-1)
	fmt.Fprintf(w, "cost $%.2f (fixed max $%.2f) -> savings %.0f%%\n",
		res.TotalCost, fixed, 100*res.CostSavingsVs(fixed))
	fmt.Fprintf(w, "SLO violations %.1f%% of time; %d allocation changes; mean adaptation episode %v\n",
		100*res.SLOViolationFraction, res.Decisions, res.MeanAdaptation())
	return nil
}
