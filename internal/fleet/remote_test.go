package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wire"
)

// driftTemplateName is the second template the daemon serves during
// the remote fleet run; a synthetic driver pushes it into a drift
// relearn while the fleet hammers its own template.
const driftTemplateName = "drift"

// buildDriftRepo clusters a synthetic signature set into a small
// repository for the drift template.
func buildDriftRepo(t *testing.T, events []metrics.Event) *core.Repository {
	t.Helper()
	rng := rand.New(rand.NewSource(404))
	rows := make([][]float64, 0, 128)
	for i := 0; i < 128; i++ {
		center := float64(1 + i%3)
		row := make([]float64, len(events))
		for j := range row {
			row[j] = center*10 + rng.NormFloat64()
		}
		rows = append(rows, row)
	}
	repo, err := core.RelearnFromSignatures(events, rows, core.OnlineRelearnConfig{
		MaxK: 4,
		Rng:  rand.New(rand.NewSource(405)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// TestFleetRemoteEquivalence is the ISSUE acceptance test: a fleet of
// 25 VMs driving a live dejavud over the loopback binary transport
// must produce repository hit/miss statistics — and per-step decisions
// — identical to the in-process fleet run at the same seed, while the
// daemon concurrently serves a second template through a
// drift-triggered relearn, with zero rejected requests end to end.
func TestFleetRemoteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fleet runs")
	}
	const vms = 25
	const seed = 42

	scenario := func() []sim.VMSpec {
		specs, err := sim.GenerateScenario(sim.ScenarioConfig{
			Rng:         rand.New(rand.NewSource(seed)),
			VMs:         vms,
			Days:        1,
			Homogeneous: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}

	// Reference: the in-process fleet run.
	local, err := Run(Config{Specs: scenario()})
	if err != nil {
		t.Fatal(err)
	}

	// A dejavud with drift-relearning enabled — but guarded so only
	// the drift template ever swaps: the fleet template must serve
	// exactly what was installed, like the in-process run that has no
	// online relearner.
	relearnCalls := atomic.Int64{}
	srvCfg := server.Config{
		Drift: server.DriftConfig{
			Window:    64,
			Threshold: 0.5,
		},
		Relearn: func(template string, events []metrics.Event, rows [][]float64) (*core.Repository, error) {
			if template != driftTemplateName {
				return nil, fmt.Errorf("relearn not enabled for template %q", template)
			}
			relearnCalls.Add(1)
			return core.RelearnFromSignatures(events, rows, core.OnlineRelearnConfig{
				MaxK: 4,
				Rng:  rand.New(rand.NewSource(406)),
			})
		},
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	cl, err := client.New(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Install the drift template and start the driver that pushes it
	// over the drift threshold while the fleet runs.
	driftEvents := []metrics.Event{metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt, metrics.EvL2Ads, metrics.EvXenCPU}
	driftRepo := buildDriftRepo(t, driftEvents)
	if _, err := cl.Install(driftTemplateName, driftRepo); err != nil {
		t.Fatal(err)
	}
	driftSrc, err := cl.Source(driftTemplateName, driftEvents)
	if err != nil {
		t.Fatal(err)
	}
	driverStop := make(chan struct{})
	driverDone := make(chan error, 1)
	go func() {
		// Signatures far outside the drift template's learned blobs:
		// every one is unforeseen, so windows close over threshold
		// quickly.
		rng := rand.New(rand.NewSource(407))
		vals := make([]float64, len(driftEvents))
		sig := &core.Signature{Events: driftEvents, Values: vals}
		for i := 0; ; i++ {
			select {
			case <-driverStop:
				driverDone <- nil
				return
			default:
			}
			for j := range vals {
				vals[j] = 1e6 * (1 + rng.Float64())
			}
			if _, err := driftSrc.Lookup(sig, 0); err != nil {
				driverDone <- fmt.Errorf("drift driver lookup %d: %w", i, err)
				return
			}
		}
	}()

	// Remote fleet run against the live daemon, same seed.
	remote, err := Run(Config{Specs: scenario(), Remote: cl})
	if err != nil {
		t.Fatal(err)
	}

	// Let the drift driver run until the relearn lands (it usually
	// already has — the fleet's learning phase gives it seconds).
	deadline := time.Now().Add(20 * time.Second)
	for relearnCalls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	var driftStats wire.Stats
	for time.Now().Before(deadline) {
		if driftStats, err = cl.Stats(driftTemplateName); err != nil {
			t.Fatal(err)
		}
		if driftStats.Relearns >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(driverStop)
	if err := <-driverDone; err != nil {
		t.Fatal(err)
	}
	if driftStats.Relearns < 1 {
		t.Fatalf("drift template never relearned (calls=%d, stats=%+v)", relearnCalls.Load(), driftStats)
	}
	if driftStats.Version < 2 {
		t.Errorf("drift template version %d, want >= 2 after relearn", driftStats.Version)
	}

	// Zero rejected requests anywhere: fleet decisions, drift driver,
	// control-plane calls.
	if st := srv.StatsSnapshot(); st.BadRequests != 0 {
		t.Errorf("daemon rejected %d requests", st.BadRequests)
	}

	compareFleetResults(t, local, remote)
}

// compareFleetResults pins the remote-equivalence bar shared by the
// HTTP and TCP transports: group statistics equal exactly and every
// VM's step records match field for field.
func compareFleetResults(t *testing.T, local, remote *Result) {
	t.Helper()
	// The remote run's repository statistics equal the in-process
	// run's exactly.
	if len(remote.Groups) != len(local.Groups) {
		t.Fatalf("groups: %d vs %d", len(remote.Groups), len(local.Groups))
	}
	for i := range local.Groups {
		lg, rg := local.Groups[i], remote.Groups[i]
		if lg.Service != rg.Service || lg.VMs != rg.VMs || lg.Classes != rg.Classes {
			t.Errorf("group %d identity: %+v vs %+v", i, lg, rg)
		}
		if lg.RepoHits != rg.RepoHits || lg.RepoMisses != rg.RepoMisses || lg.RepoEntries != rg.RepoEntries {
			t.Errorf("group %s counters diverged: local hits/misses/entries %d/%d/%d, remote %d/%d/%d",
				lg.Service, lg.RepoHits, lg.RepoMisses, lg.RepoEntries, rg.RepoHits, rg.RepoMisses, rg.RepoEntries)
		}
		if math.Abs(lg.RepoHitRate-rg.RepoHitRate) > 1e-12 {
			t.Errorf("group %s hit rate: %v vs %v", lg.Service, lg.RepoHitRate, rg.RepoHitRate)
		}
		if lg.TunerHits != rg.TunerHits || lg.TunerMisses != rg.TunerMisses {
			t.Errorf("group %s tuner cache: %d/%d vs %d/%d",
				lg.Service, lg.TunerHits, lg.TunerMisses, rg.TunerHits, rg.TunerMisses)
		}
	}

	// Byte-identical decisions: every VM's step records match, field
	// for field (sim.StepRecord is pointer-free and comparable).
	if len(remote.VMResults) != len(local.VMResults) {
		t.Fatalf("vm results: %d vs %d", len(remote.VMResults), len(local.VMResults))
	}
	for i := range local.VMResults {
		lv, rv := local.VMResults[i], remote.VMResults[i]
		if lv.TotalCost != rv.TotalCost || lv.SLOViolationFraction != rv.SLOViolationFraction ||
			lv.Decisions != rv.Decisions {
			t.Errorf("vm %d summary diverged: cost %v/%v, slo %v/%v, decisions %d/%d",
				i, lv.TotalCost, rv.TotalCost, lv.SLOViolationFraction, rv.SLOViolationFraction,
				lv.Decisions, rv.Decisions)
		}
		if len(lv.Records) != len(rv.Records) {
			t.Fatalf("vm %d records: %d vs %d", i, len(lv.Records), len(rv.Records))
		}
		for j := range lv.Records {
			if lv.Records[j] != rv.Records[j] {
				t.Fatalf("vm %d step %d diverged:\nlocal:  %+v\nremote: %+v", i, j, lv.Records[j], rv.Records[j])
			}
		}
	}
}

// TestFleetRemoteTCPEquivalence holds the remote fleet to the same
// bar over the raw-TCP decision transport: decisions ride wire
// envelopes on persistent TCP connections (admin stays HTTP for the
// installs), and the run is byte-identical to the in-process fleet at
// the same seed — same step records, hit/miss counters, and
// tuner-cache stats as the PR 5 HTTP integration test pins.
func TestFleetRemoteTCPEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fleet runs")
	}
	const vms = 25
	const seed = 42

	scenario := func() []sim.VMSpec {
		specs, err := sim.GenerateScenario(sim.ScenarioConfig{
			Rng:         rand.New(rand.NewSource(seed)),
			VMs:         vms,
			Days:        1,
			Homogeneous: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}

	local, err := Run(Config{Specs: scenario()})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpSrv := server.NewTCP(srv, server.TCPConfig{})
	served := make(chan error, 1)
	go func() { served <- tcpSrv.Serve(ln) }()
	defer func() {
		tcpSrv.Close()
		if err := <-served; err != nil {
			t.Errorf("tcp serve: %v", err)
		}
	}()

	cl, err := client.New(client.Config{
		Addr:    strings.TrimPrefix(ts.URL, "http://"),
		TCPAddr: ln.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	remote, err := Run(Config{Specs: scenario(), Remote: cl})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.StatsSnapshot(); st.BadRequests != 0 {
		t.Errorf("daemon rejected %d requests", st.BadRequests)
	}
	// Every fleet decision crossed the TCP plane, none the HTTP one.
	if tcpSrv.Stats().Conns == 0 {
		t.Error("no TCP connections were made — decisions rode HTTP")
	}
	compareFleetResults(t, local, remote)
}
