package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/sim"
)

// TestVMKitMatchesFreshKit is the VM kit's oracle: a Workers=1 run,
// where one kit per template serves every VM of it in turn, gives each
// VM exactly the result (records included) it gets alone in its own
// run on a freshly built kit. The fleet is heterogeneous, under host
// interference, with both controller reactions on — the paths that
// tune and profile on demand — and every VM shifts its request mix
// mid-run, so some signatures land between classes, where the noise
// stream decides the lookup: a kit that kept the previous VM's stream
// fails here.
//
// VMs of a template share their repository, so a VM's Puts would
// reach the VMs after it in the fleet run and none of the solo runs.
// The repositories are therefore warmed first — whole-fleet runs until
// one stores nothing — and every run below reads them unchanged.
func TestVMKitMatchesFreshKit(t *testing.T) {
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:          rand.New(rand.NewSource(7)),
		Kind:         sim.KindWorkloadShift,
		VMs:          12,
		Days:         1,
		Interference: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Specs: specs, Workers: 1, InterferenceDetection: true, OnDemandProfiling: true}
	groups, err := learnGroups(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if len(g.vms) < 2 {
			t.Fatalf("template %s has %d VM: no kit reuse to check", g.service.Name(), len(g.vms))
		}
	}
	entries := func() (n int) {
		for _, g := range groups {
			n += g.repo.Len()
		}
		return n
	}
	var fleet *Result
	for pass := 0; ; pass++ {
		if pass == 10 {
			t.Fatal("the repositories still grow after 10 warming runs")
		}
		before := entries()
		if fleet, err = runLearned(cfg, groups); err != nil {
			t.Fatal(err)
		}
		if entries() == before {
			break
		}
	}

	for i := range specs {
		solo := cfg
		solo.Specs = specs[i : i+1]
		res, err := runLearned(solo, groups)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.VMResults[0], fleet.VMResults[i]) {
			t.Errorf("vm %d (%s): result on the worker's kit differs from its solo run on a fresh kit", i, specs[i].Name)
		}
	}
}

// runLearned is Run with its learning phase replaced by the
// repositories learned holds: each template starts on an empty tuning
// cache, and the run phase steps cfg's VMs on fresh kits.
func runLearned(cfg Config, learned []*group) (*Result, error) {
	var groups []*group
	for _, l := range learned {
		g := &group{service: l.service, repo: l.repo, cache: core.NewSharedTuningCache(), classes: l.classes}
		for i, spec := range cfg.Specs {
			if spec.Service.Name() == g.service.Name() {
				g.vms = append(g.vms, i)
			}
		}
		groups = append(groups, g)
	}
	p, err := newRunPhase(cfg, groups)
	if err != nil {
		return nil, err
	}
	p.run()
	return p.res, errors.Join(p.errs...)
}

// TestVMKitReadyIsFresh checks ready's contract piece by piece: a kit
// that served a VM — its stream drawn from, its tuner having run —
// readied for the next VM holds what a fresh kit readied for that VM
// holds. The tuner's trial counter is invisible to the fleet oracle
// above (every Tune resets it before Duration reads it), so it is
// pinned here.
func TestVMKitReadyIsFresh(t *testing.T) {
	specs := scenario(t, 2, true, false)
	proto, err := DefaultTuner(specs[0].Service)
	if err != nil {
		t.Fatal(err)
	}
	lt := proto.(*core.LinearSearchTuner)
	var used, fresh vmKit
	tuner, err := used.ready(specs[0].Service, specs[0].Seed, lt)
	if err != nil {
		t.Fatal(err)
	}
	used.rng.NormFloat64()
	if _, err := tuner.Tune(services.Workload{Clients: 300, Mix: specs[0].Mix}, 0.3); err != nil {
		t.Fatal(err)
	}
	for _, k := range []*vmKit{&used, &fresh} {
		if _, err := k.ready(specs[1].Service, specs[1].Seed, lt); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(used.tuner, fresh.tuner) {
		t.Errorf("readied tuner %+v, fresh %+v", used.tuner, fresh.tuner)
	}
	for i := 0; i < 20; i++ {
		if a, b := used.rng.Int63(), fresh.rng.Int63(); a != b {
			t.Fatalf("draw %d: readied stream %d, fresh %d", i, a, b)
		}
	}
}

// TestVMKitResetIsFresh extends ready's contract to the whole kit: a
// worker's kit that served a VM, reset for the next VM (vmConfig, then
// Runner.Reset), holds what a fresh kit built for that VM holds. Three
// resets are checked: of a kit whose VM ran straight through to the
// end, for a VM of the same template and for one of another template
// (whose profiler it rebuilds), and of each member's kit of a lockstep
// block aborted by a lost frame while its VMs were parked at a lookup,
// a round open in each controller. The fresh kit shares what a
// worker's templateCtx holds for all its VMs by design (memo, tuner
// prototype, worker source) and the stream, whose reset
// TestVMKitReadyIsFresh pins, and, within a template, the profiler;
// kitStateDiff compares everything else field by field, and lets reset
// storage keep its capacity.
func TestVMKitResetIsFresh(t *testing.T) {
	gen := func(homogeneous bool) Config {
		specs, err := sim.GenerateScenario(sim.ScenarioConfig{
			Rng:          rand.New(rand.NewSource(7)),
			Kind:         sim.KindWorkloadShift,
			VMs:          8,
			Days:         1,
			Interference: true,
			Homogeneous:  homogeneous,
		})
		if err != nil {
			t.Fatal(err)
		}
		return Config{Specs: specs, Workers: 1, InterferenceDetection: true, OnDemandProfiling: true}
	}
	// resetBoth resets p's kit k for VM i as member k of n, and a fresh
	// kit in a copy of p, and compares the two.
	resetBoth := func(t *testing.T, p *runPhase, i int, src core.DecisionSource, k, n int) {
		t.Helper()
		used := &p.kits[0][k]
		keepProf := used.prof != nil && used.prof.Service == p.cfg.Specs[i].Service
		q := *p
		q.kits = [][]vmKit{make([]vmKit, n)}
		fresh := &q.kits[0][k]
		fresh.rng = used.rng
		if keepProf {
			fresh.prof = used.prof
		}
		for _, p := range []*runPhase{p, &q} {
			simCfg, run, err := p.vmConfig(0, i, src, k, n)
			if err == nil {
				err = run.Reset(simCfg)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !keepProf && used.prof == fresh.prof {
			t.Fatal("the kits share a profiler the reset should have rebuilt")
		}
		if d := kitStateDiff(reflect.ValueOf(used), reflect.ValueOf(fresh), "kit", map[[2]uintptr]bool{}); d != "" {
			t.Errorf("vm %d (%s): reset kit differs from a fresh one at %s", i, p.cfg.Specs[i].Name, d)
		}
	}

	t.Run("served", func(t *testing.T) {
		cfg := gen(false)
		groups, err := learnGroups(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newRunPhase(cfg, groups)
		if err != nil {
			t.Fatal(err)
		}
		next := map[bool]int{} // the next VM of the same template, and of another
		for _, i := range p.order[1:] {
			same := cfg.Specs[i].Service == cfg.Specs[p.order[0]].Service
			if _, ok := next[same]; !ok {
				next[same] = i
			}
		}
		if len(next) != 2 {
			t.Fatalf("order %v: no VM of the same template and of another after the first", p.order)
		}
		for _, same := range []bool{true, false} {
			p.unit(0, p.order[:1])
			if err := p.errs[p.order[0]]; err != nil {
				t.Fatal(err)
			}
			resetBoth(t, p, next[same], nil, 0, 1)
		}
	})

	t.Run("aborted mid-block", func(t *testing.T) {
		p := lockstepPhase(t, gen(true), 5)
		if len(p.blocks) != 2 {
			t.Fatalf("blocks %v, want one block", p.blocks)
		}
		p.lockstep(0, p.order)
		kits := p.kits[0]
		open := 0
		for k := range kits {
			if reflect.ValueOf(&kits[k].ctl).Elem().FieldByName("roundOpen").Bool() {
				open++
			}
		}
		if open == 0 || p.errs[p.order[0]] == nil {
			t.Fatalf("%d of %d members left a round open (first error %v): the block did not abort parked", open, len(kits), p.errs[p.order[0]])
		}
		src := p.groups[p.cfg.Specs[0].Service.Name()].source
		for k := range kits {
			resetBoth(t, p, p.order[(k+1)%len(kits)], src, k, len(kits))
		}
	})
}

// kitStateDiff returns the path of the first difference between a and
// b, or "" when they hold the same state. Pointers are followed, except
// that one pointer equals itself: state the two sides share is the
// same state. Slices compare by their elements, whatever their
// capacity, so the empty storage a reset keeps equals nil. Funcs and
// channels compare by identity.
func kitStateDiff(a, b reflect.Value, path string, seen map[[2]uintptr]bool) string {
	if a.Kind() != b.Kind() {
		return path
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.Pointer() == b.Pointer() {
			return ""
		}
		if a.IsNil() || b.IsNil() {
			return path
		}
		pair := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[pair] {
			return ""
		}
		seen[pair] = true
		return kitStateDiff(a.Elem(), b.Elem(), path, seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() == b.IsNil() {
				return ""
			}
			return path
		}
		if a.Elem().Type() != b.Elem().Type() {
			return path
		}
		return kitStateDiff(a.Elem(), b.Elem(), path, seen)
	case reflect.Struct:
		for f := 0; f < a.NumField(); f++ {
			if d := kitStateDiff(a.Field(f), b.Field(f), path+"."+a.Type().Field(f).Name, seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len())
		}
		for j := 0; j < a.Len(); j++ {
			if d := kitStateDiff(a.Index(j), b.Index(j), fmt.Sprintf("%s[%d]", path, j), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return path
		}
		for _, key := range a.MapKeys() {
			if d := kitStateDiff(a.MapIndex(key), b.MapIndex(key), fmt.Sprintf("%s[%v]", path, key), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.Pointer() != b.Pointer() {
			return path
		}
		return ""
	case reflect.Bool:
		return diffIf(a.Bool() != b.Bool(), path)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return diffIf(a.Int() != b.Int(), path)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return diffIf(a.Uint() != b.Uint(), path)
	case reflect.Float32, reflect.Float64:
		return diffIf(math.Float64bits(a.Float()) != math.Float64bits(b.Float()), path)
	case reflect.String:
		return diffIf(a.String() != b.String(), path)
	}
	return path + " (" + strings.ToLower(a.Kind().String()) + " not compared)"
}

func diffIf(differ bool, path string) string {
	if differ {
		return path
	}
	return ""
}

// TestPrivateKit covers a hand-built fleet in which one VM reuses its
// template's service name with another config: a Cassandra allowed
// only 8 instances. It cannot share its worker's kit, so it builds a
// private one: in process on its own, and over a loopback dejavud as a
// member of a lockstep block. Every VM's result is the same at Workers
// 1 and 3 and over the daemon. The premises are checked too, so the
// test cannot pass vacuously: the worker refuses that VM its kit, and
// no run stores a repository entry that would couple the VMs.
func TestPrivateKit(t *testing.T) {
	const odd = 4
	specs := func() []sim.VMSpec {
		specs := scenario(t, 6, true, false)
		svc := services.NewCassandra()
		svc.MaxInstances = 8
		specs[odd].Service = svc
		return specs
	}
	cfg := Config{Specs: specs(), Workers: 1}
	groups, err := learnGroups(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("%d templates, want 1", len(groups))
	}
	g := groups[0]
	wctx := make([]map[string]*templateCtx, 1)
	if workerTemplateCtx(wctx, 0, cfg.Specs[0].Service, g) == nil {
		t.Fatal("a VM with its template's exact config was refused the worker's kit")
	}
	if workerTemplateCtx(wctx, 0, cfg.Specs[odd].Service, g) != nil {
		t.Fatal("the VM with a divergent config was given the worker's kit")
	}

	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := one.Groups[0].RepoEntries, g.repo.Len(); got != want {
		t.Fatalf("%d repository entries after the run, %d learned: a VM stored one", got, want)
	}
	three, err := Run(Config{Specs: specs(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	compareFleetResults(t, one, three)
	d := startLiveDaemon(t)
	remote, err := Run(Config{Specs: specs(), Workers: 3, Remote: d.cl})
	if err != nil {
		t.Fatal(err)
	}
	compareFleetResults(t, one, remote)
}
