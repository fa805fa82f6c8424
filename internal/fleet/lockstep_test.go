package fleet

import (
	"errors"
	"math/rand"
	"net"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/sim"
)

// liveDaemon is a dejavud on loopback: the admin plane on an httptest
// server, decisions on a raw-TCP stream listener.
type liveDaemon struct {
	srv  *server.Server
	cl   *client.Client
	stop func() // idempotent; also runs at test cleanup
}

func startLiveDaemon(t testing.TB) *liveDaemon {
	t.Helper()
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	tcp := server.NewTCP(srv, server.TCPConfig{})
	served := make(chan error, 1)
	go func() { served <- tcp.Serve(ln) }()
	cl, err := client.New(client.Config{
		Addr:    strings.TrimPrefix(hs.URL, "http://"),
		TCPAddr: ln.Addr().String(),
		Retries: 1, Backoff: time.Millisecond, // a killed daemon fails the run fast
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	d := &liveDaemon{srv: srv, cl: cl}
	d.stop = func() {
		once.Do(func() {
			tcp.Close()
			if err := <-served; err != nil {
				t.Errorf("tcp serve: %v", err)
			}
			hs.Close()
			cl.Close()
		})
	}
	t.Cleanup(d.stop)
	return d
}

// heteroScenario is scaleScenario over every service template.
func heteroScenario(t testing.TB, kind sim.ScenarioKind, vms int) []sim.VMSpec {
	t.Helper()
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng: rand.New(rand.NewSource(42)), Kind: kind, VMs: vms, Days: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// repoRows gives an in-process source the batch capability, so a fleet
// can be stepped in lockstep blocks with no wire underneath: the
// reference for what the wire must not change, and a source whose
// frames a test can fail at will.
type repoRows struct {
	core.DecisionSource
	repo     *core.Repository
	frames   atomic.Int64
	failFrom int64 // fail every frame from this one on (0 = never)
}

// LookupRows serves a frame as dejavud does: one batched repository
// pass.
func (r *repoRows) LookupRows(bucket int, rows [][]float64, out []core.LookupResult) error {
	if n := r.frames.Add(1); r.failFrom > 0 && n >= r.failFrom {
		return errors.New("frame lost")
	}
	return r.repo.LookupRows(bucket, rows, out)
}

// lockstepPhase learns cfg's templates, puts each behind a repoRows
// source, and lays the run phase out in lockstep blocks.
func lockstepPhase(tb testing.TB, cfg Config, failFrom int64) *runPhase {
	tb.Helper()
	groups, err := learnGroups(&cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, g := range groups {
		src, err := core.SourceForRepository(g.repo)
		if err != nil {
			tb.Fatal(err)
		}
		g.source = &repoRows{DecisionSource: src, repo: g.repo, failFrom: failFrom}
	}
	p, err := newRunPhase(cfg, groups)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// runLockstepInProcess is Run with every template behind a repoRows
// source: learn, lay the run phase out in lockstep blocks, drain it.
func runLockstepInProcess(t *testing.T, cfg Config, failFrom int64) (*runPhase, error) {
	t.Helper()
	p := lockstepPhase(t, cfg, failFrom)
	p.run()
	return p, errors.Join(p.errs...)
}

// lockstepBlock is one full block — maxBlock VMs of the workload-shift
// template on one worker, records discarded — over repoRows, so no
// wire is involved: what a block's hand-offs cost on their own. Each
// call of step runs the block's VM-day again on the worker's warm kit.
func lockstepBlock(tb testing.TB) (step func(), vms int) {
	tb.Helper()
	cfg := Config{Specs: scaleScenario(tb, sim.KindWorkloadShift, maxBlock), Workers: 1, DiscardRecords: true}
	p := lockstepPhase(tb, cfg, 0)
	if len(p.blocks) != 2 {
		tb.Fatalf("blocks %v, want one block of %d", p.blocks, maxBlock)
	}
	return func() {
		p.lockstep(0, p.order)
		if err := errors.Join(p.errs...); err != nil {
			tb.Fatal(err)
		}
	}, len(p.order)
}

// straightBlock is lockstepBlock's VMs over the same sources, run
// straight through one after another on the worker's warm kit: each VM
// a unit of its own, the single-VM branch of runPhase.unit. What
// lockstep costs over it is what parking and answering a block costs.
func straightBlock(tb testing.TB) (step func(), vms int) {
	tb.Helper()
	cfg := Config{Specs: scaleScenario(tb, sim.KindWorkloadShift, maxBlock), Workers: 1, DiscardRecords: true}
	p := lockstepPhase(tb, cfg, 0)
	return func() {
		for k := range p.order {
			p.unit(0, p.order[k:k+1])
		}
		if err := errors.Join(p.errs...); err != nil {
			tb.Fatal(err)
		}
	}, len(p.order)
}

// BenchmarkLockstepBlock steps one lockstep block over an in-process
// batch source; ns/VM-day and allocs/VM are per member VM.
func BenchmarkLockstepBlock(b *testing.B) { benchmarkBlock(b, lockstepBlock) }

// BenchmarkStraightBlock is BenchmarkLockstepBlock's twin: the same
// VMs run straight through (straightBlock).
func BenchmarkStraightBlock(b *testing.B) { benchmarkBlock(b, straightBlock) }

func benchmarkBlock(b *testing.B, block func(testing.TB) (func(), int)) {
	step, vms := block(b)
	step() // warm the worker's kit
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vms), "ns/VM-day")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*vms), "allocs/VM")
}

// compareVMRecords requires every VM's step records to match field for
// field.
func compareVMRecords(t *testing.T, want, got []*sim.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("vm results: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i].Records) != len(got[i].Records) {
			t.Fatalf("vm %d records: %d vs %d", i, len(want[i].Records), len(got[i].Records))
		}
		for j := range want[i].Records {
			if want[i].Records[j] != got[i].Records[j] {
				t.Fatalf("vm %d step %d diverged:\nwant: %+v\ngot:  %+v", i, j, want[i].Records[j], got[i].Records[j])
			}
		}
	}
}

// TestLockstepInterference runs one block with the interference loop
// on over a live dejavud: its VMs sit in different buckets in the same
// round and go out as one frame per bucket, probe and store entries
// through Get and Put, and every VM matches the in-process run step for
// step. Once VMs store entries for each other the outcome depends on
// the order they step in (in-process Workers=1 and Workers=4 already
// differ), so the in-process reference steps in the same lockstep
// order, through repoRows.
func TestLockstepInterference(t *testing.T) {
	const vms, rounds = 12, 24 // one block; one periodic lookup per VM per hour
	cfg := Config{Specs: scenario(t, vms, true, true), Workers: 1, InterferenceDetection: true}
	ref, err := runLockstepInProcess(t, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := startLiveDaemon(t)
	cfg.Specs, cfg.Remote = scenario(t, vms, true, true), d.cl
	remote, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareVMRecords(t, ref.res.VMResults, remote.VMResults)

	st := d.srv.StatsSnapshot()
	if st.Decisions != vms*rounds {
		t.Errorf("daemon decided %d rows, want %d", st.Decisions, vms*rounds)
	}
	// More frames than rounds: some round held several buckets. Fewer
	// than rows: VMs sharing a bucket shared a frame.
	if st.LookupReqs <= rounds || st.LookupReqs >= vms*rounds {
		t.Errorf("%d lookup frames for %d rounds of %d VMs", st.LookupReqs, rounds, vms)
	}
	if frames := ref.groups["cassandra"].source.(*repoRows).frames.Load(); st.LookupReqs != frames {
		t.Errorf("%d lookup frames over the wire, %d in process", st.LookupReqs, frames)
	}
	if st.PutReqs == 0 || st.GetReqs == 0 {
		t.Errorf("interference loop made %d puts and %d gets, want both", st.PutReqs, st.GetReqs)
	}
	hits, misses := ref.groups["cassandra"].repo.LookupCounts()
	if g := remote.Groups[0]; g.RepoHits != hits || g.RepoMisses != misses {
		t.Errorf("hits/misses %d/%d, in-process %d/%d", g.RepoHits, g.RepoMisses, hits, misses)
	}
}

// TestLockstepChurn: block members join late and leave early, so they
// finish in different rounds; every VM still matches the in-process
// run.
func TestLockstepChurn(t *testing.T) {
	const vms = 24
	leavers := 0
	for _, s := range scaleScenario(t, sim.KindChurn, vms) {
		if s.LeaveAt > 0 {
			leavers++
		}
	}
	if leavers == 0 {
		t.Fatal("churn scenario preempts nobody")
	}
	local, err := Run(Config{Specs: scaleScenario(t, sim.KindChurn, vms), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := startLiveDaemon(t)
	remote, err := Run(Config{Specs: scaleScenario(t, sim.KindChurn, vms), Workers: 2, Remote: d.cl})
	if err != nil {
		t.Fatal(err)
	}
	compareFleetResults(t, local, remote)

	p, err := runLockstepInProcess(t, Config{Specs: scaleScenario(t, sim.KindChurn, vms), Workers: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	compareVMRecords(t, local.VMResults, p.res.VMResults)
}

// TestLockstepWorkersInvariance is the remote half of
// TestFleetScaleWorkersInvariance: at vms=1000 the block layout
// differs with the worker count (one worker cuts maxBlock-VM blocks,
// the blocks of several run concurrently), and per-VM results do not.
func TestLockstepWorkersInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two 1000-VM remote fleet runs per scenario kind")
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 4
	}
	for _, kind := range []sim.ScenarioKind{sim.KindBaseline, sim.KindWorkloadShift} {
		sequential, err := Run(Config{Specs: heteroScenario(t, kind, 1000), Workers: 1, Remote: startLiveDaemon(t).cl})
		if err != nil {
			t.Fatalf("%s sequential: %v", kind, err)
		}
		concurrent, err := Run(Config{Specs: heteroScenario(t, kind, 1000), Workers: workers, Remote: startLiveDaemon(t).cl})
		if err != nil {
			t.Fatalf("%s concurrent: %v", kind, err)
		}
		t.Run(kind.String(), func(t *testing.T) {
			compareFleetResults(t, sequential, concurrent)
		})
	}
}

// TestLockstepSchedule pins the block schedule, which decides results
// once VMs store entries for each other: where lockstepBlocks cuts each
// template for a worker count, and that a fleet over a batch source
// sends exactly one frame per block per profiling round.
func TestLockstepSchedule(t *testing.T) {
	svcs := []services.Service{services.NewCassandra(), services.NewRUBiS(), services.NewSPECWeb()}
	for _, tc := range []struct {
		sizes   []int // VMs per template, template-major
		batch   []bool
		workers int
		want    []int // block sizes in order; nil = no blocks
	}{
		{[]int{1000}, []bool{true}, 2, []int{256, 256, 256, 232}},
		{[]int{1000}, []bool{true}, 1, []int{256, 256, 256, 232}},
		{[]int{512}, []bool{true}, 2, []int{256, 256}},
		{[]int{100}, []bool{true}, 2, []int{50, 50}},
		{[]int{100}, []bool{true}, 3, []int{34, 34, 32}},
		{[]int{1}, []bool{true}, 4, []int{1}},
		{[]int{300, 7, 3}, []bool{true, true, false}, 2, []int{150, 150, 4, 3, 1, 1, 1}},
		{[]int{5, 2}, []bool{false, false}, 2, nil},
	} {
		var specs []sim.VMSpec
		groups := map[string]*group{}
		for k, n := range tc.sizes {
			g := &group{source: plainSource{}}
			if tc.batch[k] {
				g.source = &repoRows{}
			}
			for j := 0; j < n; j++ {
				g.vms = append(g.vms, len(specs))
				specs = append(specs, sim.VMSpec{Service: svcs[k]})
			}
			groups[svcs[k].Name()] = g
		}
		order := make([]int, len(specs))
		for i := range order {
			order[i] = i
		}
		var got []int
		if bounds := lockstepBlocks(specs, order, groups, tc.workers); bounds != nil {
			for u := 0; u+1 < len(bounds); u++ {
				got = append(got, bounds[u+1]-bounds[u])
			}
			if bounds[0] != 0 || bounds[len(bounds)-1] != len(order) {
				t.Errorf("%v/%d: bounds %v do not cover the order", tc.sizes, tc.workers, bounds)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v VMs on %d workers: blocks %v, want %v", tc.sizes, tc.workers, got, tc.want)
		}
	}

	// 600 VMs on two workers: blocks of 256, 256 and 88, each sending
	// one frame per hourly profiling round.
	const vms, rounds = 600, 24
	p := lockstepPhase(t, Config{Specs: scaleScenario(t, sim.KindBaseline, vms), Workers: 2, DiscardRecords: true}, 0)
	if blocks := len(p.blocks) - 1; blocks != 3 {
		t.Fatalf("%d blocks (%v), want 3", blocks, p.blocks)
	}
	p.run()
	if err := errors.Join(p.errs...); err != nil {
		t.Fatal(err)
	}
	for name, g := range p.groups {
		hits, misses := g.repo.LookupCounts()
		if hits+misses != vms*rounds {
			t.Errorf("%s: %d rows looked up, want %d", name, hits+misses, vms*rounds)
		}
		if frames := g.source.(*repoRows).frames.Load(); frames != int64(len(p.blocks)-1)*rounds {
			t.Errorf("%s: %d frames, want %d blocks × %d rounds", name, frames, len(p.blocks)-1, rounds)
		}
	}
}

// plainSource is a DecisionSource without the batch capability.
type plainSource struct{ core.DecisionSource }

// TestLockstepFrameAccounting: a 200-VM single-template fleet on four
// workers is four blocks of 50, so the daemon sees at most one frame
// per block per profiling round while deciding exactly the rows the
// in-process run looks up.
func TestLockstepFrameAccounting(t *testing.T) {
	const vms, workers, rounds = 200, 4, 24
	local, err := Run(Config{Specs: scaleScenario(t, sim.KindBaseline, vms), Workers: workers, DiscardRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	d := startLiveDaemon(t)
	remote, err := Run(Config{Specs: scaleScenario(t, sim.KindBaseline, vms), Workers: workers, DiscardRecords: true, Remote: d.cl})
	if err != nil {
		t.Fatal(err)
	}
	compareFleetResults(t, local, remote)
	st := d.srv.StatsSnapshot()
	if blocks := int64(workers); st.LookupReqs > blocks*rounds {
		t.Errorf("%d lookup frames, want at most %d blocks × %d rounds", st.LookupReqs, blocks, rounds)
	}
	if got, want := st.Hits+st.Misses, local.Groups[0].RepoHits+local.Groups[0].RepoMisses; got != want || st.Decisions != want {
		t.Errorf("daemon looked up %d rows (decided %d), in-process %d", got, st.Decisions, want)
	}
	if n := remote.StepPhase.Count; n != vms {
		t.Errorf("StepPhase has %d samples, want one per VM (%d)", n, vms)
	}
}

// TestLockstepSmallFleets: a fleet no larger than its worker count has
// blocks of one, which run straight through the source with no
// hand-off; so does a fleet of one.
func TestLockstepSmallFleets(t *testing.T) {
	for _, vms := range []int{1, 3} {
		local, err := Run(Config{Specs: scenario(t, vms, true, false), Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		d := startLiveDaemon(t)
		remote, err := Run(Config{Specs: scenario(t, vms, true, false), Workers: 8, Remote: d.cl})
		if err != nil {
			t.Fatal(err)
		}
		compareFleetResults(t, local, remote)
		if st := d.srv.StatsSnapshot(); st.LookupReqs != st.Decisions {
			t.Errorf("%d VMs: %d frames for %d rows, want one each", vms, st.LookupReqs, st.Decisions)
		}
		d.stop()
		waitGoroutines(t, before)
	}
}

// TestLockstepOverHTTP: a client with no stream plane, its decisions
// binary-HTTP POSTs to one dejavud, steps the fleet in the same blocks
// as the stream plane does — two blocks of 20 on two workers, one
// frame per block per hourly profiling round, far fewer than the
// rows — with the same per-VM results as the in-process run.
func TestLockstepOverHTTP(t *testing.T) {
	const vms, workers, rounds = 40, 2, 24
	local, err := Run(Config{Specs: scaleScenario(t, sim.KindBaseline, vms), Workers: workers, DiscardRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl, err := client.New(client.Config{Addr: strings.TrimPrefix(hs.URL, "http://")})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	remote, err := Run(Config{Specs: scaleScenario(t, sim.KindBaseline, vms), Workers: workers, DiscardRecords: true, Remote: cl})
	if err != nil {
		t.Fatal(err)
	}
	compareFleetResults(t, local, remote)
	if st := srv.StatsSnapshot(); st.LookupReqs != 2*rounds || st.Decisions != vms*rounds {
		t.Errorf("%d lookup frames of %d rows over HTTP, want 2 blocks × %d rounds = %d frames of %d rows",
			st.LookupReqs, st.Decisions, rounds, 2*rounds, vms*rounds)
	}
}

// waitGoroutines waits for the goroutine count to fall back to want:
// connection handlers and idle-connection readers take a moment to
// notice their socket closed.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the run:\n%s", got, want, buf[:runtime.Stack(buf, true)])
	}
}

// TestLockstepAbortDaemonKilled kills the daemon mid-run: Run returns
// an error naming VMs of the aborted blocks, and every VM goroutine
// has unwound.
func TestLockstepAbortDaemonKilled(t *testing.T) {
	before := runtime.NumGoroutine()
	d := startLiveDaemon(t)
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for d.srv.StatsSnapshot().LookupReqs < 8 {
			time.Sleep(50 * time.Microsecond)
		}
		d.stop()
	}()
	_, err := Run(Config{Specs: heteroScenario(t, sim.KindBaseline, 4000), Workers: 2, DiscardRecords: true, Remote: d.cl})
	<-killed
	if err == nil {
		t.Fatal("fleet run survived its daemon")
	}
	if msg := err.Error(); !strings.Contains(msg, "fleet: vm ") || !strings.Contains(msg, "lockstep block aborted") {
		t.Errorf("error does not name the aborted VMs: %.300s", msg)
	}
	waitGoroutines(t, before)
}

// TestLockstepAbort fails a block two ways with no network underneath
// — a frame lost mid-run, and one VM erroring between two lookups
// while its peers are parked — and requires every VM of the block to
// fail under its own name with no goroutine left behind.
func TestLockstepAbort(t *testing.T) {
	const vms = 8
	check := func(t *testing.T, p *runPhase, err error, cause string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), cause) {
			t.Fatalf("run error %v, want one caused by %q", err, cause)
		}
		for i, e := range p.errs {
			if e == nil || !strings.Contains(e.Error(), p.cfg.Specs[i].Name) {
				t.Errorf("vm %d: error %v does not name it", i, e)
			}
		}
	}
	t.Run("frame", func(t *testing.T) {
		before := runtime.NumGoroutine()
		p, err := runLockstepInProcess(t, Config{Specs: scenario(t, vms, true, false), Workers: 1}, 5)
		check(t, p, err, "frame lost")
		waitGoroutines(t, before)
	})
	t.Run("vm", func(t *testing.T) {
		before := runtime.NumGoroutine()
		specs := scenario(t, vms, true, false)
		specs[3].Interference = func(now time.Duration) float64 {
			if now >= 3*time.Hour+30*time.Minute {
				return -1 // rejected by the deployment
			}
			return 0
		}
		p, err := runLockstepInProcess(t, Config{Specs: specs, Workers: 1}, 0)
		check(t, p, err, "sim: interference at")
		if e := p.errs[3].Error(); strings.Contains(e, "lockstep block aborted") {
			t.Errorf("the failing VM reports its peers' error: %v", e)
		}
		if e := p.errs[0].Error(); !strings.Contains(e, "lockstep block aborted") {
			t.Errorf("a parked peer reports %v", e)
		}
		waitGoroutines(t, before)
	})
}

// BenchmarkFleetRemote steps a 200-VM heterogeneous fleet against a
// loopback dejavud over the TCP stream plane — the lockstep path end
// to end. frames/VM is the daemon's lookup frames per VM per run (24
// without lockstep: one per profiling round).
func BenchmarkFleetRemote(b *testing.B) {
	const vms = 200
	d := startLiveDaemon(b)
	var steps, frames int64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs := heteroScenario(b, sim.KindBaseline, vms)
		sent := d.srv.StatsSnapshot().LookupReqs
		b.StartTimer()
		res, err := Run(Config{Specs: specs, DiscardRecords: true, Remote: d.cl})
		if err != nil {
			b.Fatal(err)
		}
		steps += int64(res.TotalSteps)
		elapsed += res.Elapsed
		frames += d.srv.StatsSnapshot().LookupReqs - sent
	}
	b.ReportMetric(float64(steps)/elapsed.Seconds(), "steps/s")
	b.ReportMetric(float64(frames)/float64(b.N*vms), "frames/VM")
}
