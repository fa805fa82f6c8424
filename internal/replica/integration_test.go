package replica_test

import (
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/proxy"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wire"
)

// tierMember is one integration-test replica: a dejavud serving both
// planes, the TCP decision plane wrapped in seeded chaos.
type tierMember struct {
	name    string
	srv     *server.Server
	hs      *httptest.Server
	tcpSrv  *server.TCPServer
	tcpLn   *chaos.Listener
	tcpDone chan error
	once    sync.Once
}

func (m *tierMember) spec() replica.Spec {
	return replica.Spec{
		Name:    m.name,
		Addr:    strings.TrimPrefix(m.hs.URL, "http://"),
		TCPAddr: m.tcpLn.Addr().String(),
	}
}

// kill tears both planes down abruptly — the replica dies, it does not
// drain. Killing a dead replica does nothing, so test cleanup can kill
// every replica it started.
func (m *tierMember) kill(tb testing.TB) {
	m.once.Do(func() {
		m.hs.CloseClientConnections()
		m.hs.Close()
		if err := m.tcpSrv.Close(); err != nil {
			tb.Logf("tcp close on kill: %v", err)
		}
		if err := <-m.tcpDone; err != nil {
			tb.Errorf("tcp serve (%s): %v", m.name, err)
		}
	})
}

// startTierMember brings up one replica with chaos on its decision
// plane, killed at test cleanup: faults are deterministic per (seed,
// connection index), and SkipFirst spares the hello so chaos exercises
// envelope traffic (a faulted hello just looks like a failed dial,
// which the client already covers). A zero chaos.Config injects
// nothing.
func startTierMember(tb testing.TB, name string, chaosCfg chaos.Config) *tierMember {
	tb.Helper()
	srv, err := server.New(server.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hs.Close()
		tb.Fatal(err)
	}
	cln := chaos.NewListener(ln, chaosCfg)
	tcpSrv := server.NewTCP(srv, server.TCPConfig{})
	m := &tierMember{name: name, srv: srv, hs: hs, tcpSrv: tcpSrv, tcpLn: cln, tcpDone: make(chan error, 1)}
	go func() { m.tcpDone <- tcpSrv.Serve(cln) }()
	tb.Cleanup(func() { m.kill(tb) })
	return m
}

// tierChaos is the fault mix of the chaos equivalence tests: drops,
// stalls and torn envelopes on every replica's decision connections.
var tierChaos = chaos.Config{
	Seed:         42,
	DropRate:     0.004,
	StallRate:    0.01,
	TruncateRate: 0.004,
	StallMax:     2 * time.Millisecond,
	SkipFirst:    2,
}

// tier is a replicated deployment on loopback as a remote fleet sees
// it: replicas, a registry routing decisions over their TCP planes,
// the decision front over the registry, and a client of the front's
// binary-HTTP plane. Everything is torn down by close or at test
// cleanup.
type tier struct {
	members map[string]*tierMember // guarded by mu once the run starts
	reg     *replica.Registry
	front   *proxy.DecisionFront
	fs      *httptest.Server
	cl      *client.Client
	stop    func() // idempotent

	mu     sync.Mutex
	frames int
	hook   func(tr *tier, frame int)
}

// startTier brings up a tier over the named replicas. hook, when set,
// runs before the front forwards each lookup frame (numbered from 1),
// with no other frame admitted until it returns: a disruption pinned
// to the fleet's own frame sequence rather than to wall-clock time.
func startTier(tb testing.TB, names []string, chaosCfg chaos.Config, hook func(tr *tier, frame int)) *tier {
	tb.Helper()
	tr := &tier{members: make(map[string]*tierMember, len(names)), hook: hook}
	specs := make([]replica.Spec, 0, len(names))
	for _, name := range names {
		m := startTierMember(tb, name, chaosCfg)
		tr.members[name] = m
		specs = append(specs, m.spec())
	}
	var err error
	tr.reg, err = replica.New(replica.Config{
		Replicas: specs,
		Encoding: wire.EncodingBinary,
		Probe:    replica.ProbeConfig{Interval: 25 * time.Millisecond, FailAfter: 2},
		Logf:     tb.Logf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if tr.front, err = proxy.NewDecisionFront(proxy.DecisionFrontConfig{Replicas: tr.reg, Logf: tb.Logf}); err != nil {
		tr.reg.Close()
		tb.Fatal(err)
	}
	tr.fs = httptest.NewServer(tr)
	var once sync.Once
	tr.stop = func() {
		once.Do(func() {
			if tr.cl != nil {
				tr.cl.Close()
			}
			tr.fs.Close()
			tr.front.Close()
			tr.reg.Close()
			for _, m := range tr.members {
				m.kill(tb)
			}
		})
	}
	tb.Cleanup(tr.stop)
	if tr.cl, err = client.New(client.Config{Addr: strings.TrimPrefix(tr.fs.URL, "http://")}); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// ServeHTTP is the front's handler behind the frame hook.
func (tr *tier) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/lookup" {
		tr.mu.Lock()
		tr.frames++
		if tr.hook != nil {
			tr.hook(tr, tr.frames)
		}
		tr.mu.Unlock()
	}
	tr.front.Handler().ServeHTTP(w, r)
}

// injected sums the chaos faults fired across the tier's replicas,
// dead ones included.
func (tr *tier) injected() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var n int64
	for _, m := range tr.members {
		n += m.tcpLn.Injected()
	}
	return n
}

// homogeneousFleet is the tier tests' seed-42 Cassandra fleet of the
// given kind, vms VMs running days days.
func homogeneousFleet(tb testing.TB, kind sim.ScenarioKind, vms, days int) []sim.VMSpec {
	tb.Helper()
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:         rand.New(rand.NewSource(42)),
		Kind:        kind,
		VMs:         vms,
		Days:        days,
		Homogeneous: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return specs
}

// compareVMRecords requires every VM's step records, and the summaries
// drawn from them, to match the in-process run's field for field.
// (Group hit/miss counters are not compared: under chaos a replica that
// serves a lookup whose response is then torn has counted work the
// client retried elsewhere, and a killed replica's counters die with
// it. The step records are the ground truth that the tier decided
// identically.)
func compareVMRecords(t *testing.T, local, remote *fleet.Result) {
	t.Helper()
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

// TestKillReplicaUnderChaosEquivalence is the tentpole's headline
// test: a remote fleet at seed 42 steps in lockstep blocks through the
// decision front over a three-replica tier whose decision planes
// suffer seeded connection drops, stalls, and truncated envelopes; one
// replica is killed mid-load and a fresh one admitted in its place.
// The run must reject zero requests, produce step records
// byte-identical to the in-process fleet at the same seed, and leave
// every replica — including the newcomer — serving the same template
// versions.
//
// The disruption is pinned to the fleet's frame sequence: r1 dies
// before the front forwards lookup frame killAt, and is swapped out
// for r3 before the first frame after the registry has failed a
// decision over from it. Blocks make few frames, so the fleet runs
// chaosDays days to give the chaos schedules as many operations as
// a row-by-row day did.
func TestKillReplicaUnderChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fleet runs")
	}
	const vms, killAt = 25, 200

	local, err := fleet.Run(fleet.Config{Specs: homogeneousFleet(t, sim.KindBaseline, vms, chaosDays), Workers: chaosWorkers})
	if err != nil {
		t.Fatal(err)
	}

	killedAt := int64(-1) // registry failovers when r1 died; -1 while it lives
	swapped := false
	tr := startTier(t, []string{"r0", "r1", "r2"}, tierChaos, func(tr *tier, frame int) {
		switch {
		case frame == killAt:
			tr.members["r1"].kill(t)
			killedAt = tr.reg.Failovers()
		case killedAt >= 0 && !swapped && tr.reg.Failovers() > killedAt:
			// The tier has routed a decision around the dead replica:
			// swap it for a fresh, empty one, which joins out of sync
			// and must be repaired from a donor before it serves.
			swapped = true
			if err := tr.reg.Remove("r1"); err != nil {
				t.Errorf("remove killed replica: %v", err)
				return
			}
			fresh := startTierMember(t, "r3", tierChaos)
			tr.members["r3"] = fresh
			if err := tr.reg.Add(fresh.spec()); err != nil {
				t.Errorf("admit replacement replica: %v", err)
			}
		}
	})

	remote, err := fleet.Run(fleet.Config{Specs: homogeneousFleet(t, sim.KindBaseline, vms, chaosDays), Workers: chaosWorkers, Remote: tr.cl})
	if err != nil {
		t.Fatalf("remote fleet run rejected requests: %v", err)
	}
	tr.mu.Lock()
	frames, live := tr.frames, make(map[string]*tierMember, len(tr.members))
	for name, m := range tr.members {
		if name != "r1" {
			live[name] = m
		}
	}
	killed, failedOver := killedAt >= 0, swapped
	tr.mu.Unlock()
	if !killed || !failedOver {
		t.Fatalf("after %d lookup frames: r1 killed at frame %d %v, a decision failed over from it and it was swapped out %v",
			frames, killAt, killed, failedOver)
	}

	// Zero rejected requests: the front relayed every batch.
	if st := tr.front.Stats(); st.Errors != 0 {
		t.Errorf("front counted %d errors", st.Errors)
	}
	// The chaos plan actually fired (otherwise this test proves
	// nothing about fault absorption).
	injected := tr.injected()
	if injected == 0 {
		t.Error("no chaos faults fired across the tier")
	}
	t.Logf("%d lookup frames, chaos faults injected: %d, failovers: %d, status: %+v", frames, injected, tr.reg.Failovers(), tr.reg.Status())

	// Byte-identical decisions.
	compareVMRecords(t, local, remote)
	// Group identity and repository shape match (entries are state,
	// not traffic counters, so chaos cannot skew them).
	if len(remote.Groups) != len(local.Groups) {
		t.Fatalf("groups: %d vs %d", len(remote.Groups), len(local.Groups))
	}
	for i := range local.Groups {
		lg, rg := local.Groups[i], remote.Groups[i]
		if lg.Service != rg.Service || lg.VMs != rg.VMs || lg.Classes != rg.Classes {
			t.Errorf("group %d identity: %+v vs %+v", i, lg, rg)
		}
		if lg.RepoEntries != rg.RepoEntries {
			t.Errorf("group %s entries: local %d, remote %d", lg.Service, lg.RepoEntries, rg.RepoEntries)
		}
		if lg.TunerHits != rg.TunerHits || lg.TunerMisses != rg.TunerMisses {
			t.Errorf("group %s tuner cache: %d/%d vs %d/%d",
				lg.Service, lg.TunerHits, lg.TunerMisses, rg.TunerHits, rg.TunerMisses)
		}
		if math.IsNaN(rg.RepoHitRate) {
			t.Errorf("group %s remote hit rate is NaN", lg.Service)
		}
	}

	// Convergence: every surviving replica — including the mid-run
	// replacement — serves every template at the agreed version.
	desired := tr.reg.Status().Templates
	if len(desired) == 0 {
		t.Fatal("registry agreed on no templates")
	}
	deadline := time.Now().Add(10 * time.Second)
	for name, m := range live {
	templates:
		for tpl, want := range desired {
			for {
				if m.srv.HealthSnapshot().Templates[tpl].Version == want {
					continue templates
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica %s stuck at %s@%d, want %d",
						name, tpl, m.srv.HealthSnapshot().Templates[tpl].Version, want)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}

// The chaos tests' fleet shape. A lockstep fleet sends one frame per
// block per profiling round, not one per VM, so its decision
// connections see far fewer operations per VM-day than a fleet stepping
// row by row did. Six run days on five workers (five blocks of the
// kill test's 25 VMs, four of the flash crowd's 12) restore the faults
// the chaos schedules fire; pinning the workers keeps the frame
// sequence, and so where the kill lands, the same on every host.
const chaosDays, chaosWorkers = 6, 5

// TestFlashCrowdFleetUnderChaosEquivalence extends the remote-fleet
// equivalence family to an adversarial scenario: a flash-crowd fleet —
// every tenant hit by the same 10-100x load spike, exactly the moment
// a shared decision tier is most loaded — served by the full
// 3-replica tier with seeded chaos on every decision connection, must
// stay byte-identical to the in-process fleet at seed 42. The spike
// floods the repositories with unforeseen signatures, so this pins
// the miss path (max-allocation fallback) across the wire as well as
// the steady-state hit path the kill-replica test exercises.
func TestFlashCrowdFleetUnderChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fleet runs")
	}
	const vms = 12

	local, err := fleet.Run(fleet.Config{Specs: homogeneousFleet(t, sim.KindFlashCrowd, vms, chaosDays), Workers: chaosWorkers})
	if err != nil {
		t.Fatal(err)
	}
	tr := startTier(t, []string{"fc0", "fc1", "fc2"}, tierChaos, nil)
	remote, err := fleet.Run(fleet.Config{Specs: homogeneousFleet(t, sim.KindFlashCrowd, vms, chaosDays), Workers: chaosWorkers, Remote: tr.cl})
	if err != nil {
		t.Fatalf("remote flash-crowd fleet rejected requests: %v", err)
	}

	if st := tr.front.Stats(); st.Errors != 0 {
		t.Errorf("front counted %d errors", st.Errors)
	}
	injected := tr.injected()
	if injected == 0 {
		t.Error("no chaos faults fired across the tier")
	}
	t.Logf("%d lookup frames, chaos faults injected: %d, failovers: %d", tr.front.Stats().Batches, injected, tr.reg.Failovers())

	// The spike actually stressed the miss path: the fleet hit rate
	// must sit below the baseline's perfect score.
	if hr := local.HitRate(); hr >= 1 {
		t.Errorf("flash-crowd fleet hit rate %v, expected unforeseen-load misses", hr)
	}

	// Byte-identical decisions, spike hours included.
	compareVMRecords(t, local, remote)
}
