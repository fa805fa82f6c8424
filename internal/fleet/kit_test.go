package fleet

import (
	"math/rand"
	"reflect"
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
	groups, _, err := learnGroups(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SkipLearning = make(map[string]*core.Repository, len(groups))
	for _, g := range groups {
		if len(g.vms) < 2 {
			t.Fatalf("template %s has %d VM: no kit reuse to check", g.service.Name(), len(g.vms))
		}
		cfg.SkipLearning[g.service.Name()] = g.repo
	}
	entries := func() (n int) {
		for _, repo := range cfg.SkipLearning {
			n += repo.Len()
		}
		return n
	}
	var fleet *Result
	for pass := 0; ; pass++ {
		if pass == 10 {
			t.Fatal("the repositories still grow after 10 warming runs")
		}
		before := entries()
		if fleet, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
		if entries() == before {
			break
		}
	}

	for i := range specs {
		solo := cfg
		solo.Specs = specs[i : i+1]
		res, err := Run(solo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.VMResults[0], fleet.VMResults[i]) {
			t.Errorf("vm %d (%s): result on the worker's kit differs from its solo run on a fresh kit", i, specs[i].Name)
		}
	}
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
	used := templateCtx{proto: lt}
	tuner, err := used.ready(&specs[0])
	if err != nil {
		t.Fatal(err)
	}
	used.rng.NormFloat64()
	if _, err := tuner.Tune(services.Workload{Clients: 300, Mix: specs[0].Mix}, 0.3); err != nil {
		t.Fatal(err)
	}
	fresh := templateCtx{proto: lt}
	for _, tc := range []*templateCtx{&used, &fresh} {
		if _, err := tc.ready(&specs[1]); err != nil {
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
	groups, _, err := learnGroups(&cfg)
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
