package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestKillRestartIdenticalDecisions is the dejavud durability story:
// a daemon populates its repository under traffic, snapshots on
// shutdown, and a fresh process loading that snapshot serves
// byte-identical decisions for the same requests.
func TestKillRestartIdenticalDecisions(t *testing.T) {
	repo := testRepository(t, 7)
	snapPath := filepath.Join(t.TempDir(), "repo.json")

	s1, ts1 := newTestServer(t, repo, Config{SnapshotPath: snapPath})

	// Traffic: batched lookups plus runtime Puts filling interference
	// buckets, like fleet controllers would.
	var requests []*wire.Request
	for _, clients := range []float64{120, 200, 300, 420} {
		vals := foreseenSignature(t, repo, int64(clients), clients)
		requests = append(requests, batch("", 0, vals), batch("", 2, vals, vals))
	}
	for _, r := range requests {
		if code, body := postBinary(t, ts1.URL+"/v1/lookup", r); code != http.StatusOK {
			t.Fatalf("lookup: %d %s", code, body)
		}
	}
	if code, body := post(t, ts1.URL+"/v1/put", `{"class":0,"bucket":2,"type":"large","count":5}`); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	firstRun := make([][]byte, len(requests))
	for i, r := range requests {
		code, body := postBinary(t, ts1.URL+"/v1/lookup", r)
		if code != http.StatusOK {
			t.Fatalf("lookup: %d %s", code, body)
		}
		firstRun[i] = body
	}

	// "Kill": graceful shutdown snapshots the repository.
	if _, err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// "Restart": a brand-new server loads the snapshot from disk.
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.LoadRepository(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, restored, Config{SnapshotPath: snapPath})
	for i, r := range requests {
		code, body := postBinary(t, ts2.URL+"/v1/lookup", r)
		if code != http.StatusOK {
			t.Fatalf("restarted lookup: %d %s", code, body)
		}
		if !bytes.Equal(body, firstRun[i]) {
			t.Errorf("request %d decision diverged after restart:\nbefore: %x\nafter:  %x", i, firstRun[i], body)
		}
	}
}

// TestDriftRelearnUnderLiveLoad drives concurrent lookup traffic whose
// signatures have drifted away from the learned classes. The drift
// monitor must trigger a background relearn that swaps in a new
// repository version while every in-flight request keeps succeeding —
// no rejections, no blocking on the rebuild.
func TestDriftRelearnUnderLiveLoad(t *testing.T) {
	repo := testRepository(t, 8)
	width := len(repo.EventsRef())

	relearnStarted := make(chan struct{}, 1)
	var relearn RelearnFunc = func(_ string, events []metrics.Event, rows [][]float64) (*core.Repository, error) {
		select {
		case relearnStarted <- struct{}{}:
		default:
		}
		// Hold the rebuild long enough that live traffic provably
		// overlaps it, then re-cluster for real.
		time.Sleep(100 * time.Millisecond)
		return core.RelearnFromSignatures(events, rows, core.OnlineRelearnConfig{
			MaxK: 4,
			Rng:  rand.New(rand.NewSource(99)),
		})
	}
	s, ts := newTestServer(t, repo, Config{
		Drift: DriftConfig{
			Window:    64,
			Threshold: 0.5,
		},
		Relearn: relearn,
	})

	// Drifted traffic: two new blobs far outside the learned classes.
	drifted := make([]*wire.Request, 8)
	for i := range drifted {
		row := make([]float64, width)
		base := 5e4
		if i%2 == 1 {
			base = 9e5
		}
		for j := range row {
			row[j] = base * float64(j+1) * (1 + 0.01*float64(i))
		}
		drifted[i] = batch("", 0, row, row)
	}

	var (
		stop           atomic.Bool
		failures       atomic.Int64
		total          atomic.Int64
		duringRelearn  atomic.Int64
		versionBumped  = make(chan struct{})
		closeOnce      sync.Once
		clientWg       sync.WaitGroup
		initialVersion = s.StatsSnapshot().Version
	)
	for g := 0; g < 4; g++ {
		clientWg.Add(1)
		go func(worker int) {
			defer clientWg.Done()
			i := worker
			for !stop.Load() {
				code, body := postBinary(t, ts.URL+"/v1/lookup", drifted[i%len(drifted)])
				var resp wire.Response
				if code != http.StatusOK || resp.DecodeBinary(body) != nil {
					t.Errorf("live request rejected during relearn: %d %s", code, body)
					failures.Add(1)
				}
				total.Add(1)
				if s.Relearning() {
					duringRelearn.Add(1)
				}
				if resp.Version == initialVersion+1 {
					closeOnce.Do(func() { close(versionBumped) })
				}
				i++
			}
		}(g)
	}

	select {
	case <-relearnStarted:
	case <-time.After(20 * time.Second):
		stop.Store(true)
		clientWg.Wait()
		t.Fatalf("drift never triggered a relearn (served %d decisions)", total.Load())
	}
	select {
	case <-versionBumped:
	case <-time.After(20 * time.Second):
		stop.Store(true)
		clientWg.Wait()
		t.Fatalf("new repository version never served (relearns=%d fails=%d)", s.StatsSnapshot().Relearns, s.StatsSnapshot().RelearnFails)
	}
	stop.Store(true)
	clientWg.Wait()

	if failures.Load() != 0 {
		t.Errorf("%d of %d requests failed during relearn", failures.Load(), total.Load())
	}
	if duringRelearn.Load() == 0 {
		t.Error("no requests were served while the relearn was in flight")
	}
	if got := s.StatsSnapshot().Version; got < initialVersion+1 {
		t.Errorf("version %d, want > %d", got, initialVersion)
	}
	if s.StatsSnapshot().Relearns < 1 {
		t.Errorf("relearns %d, want >= 1", s.StatsSnapshot().Relearns)
	}
	st := s.StatsSnapshot()
	if st.DriftTriggers < 1 || st.LastDriftRate <= 0 {
		t.Errorf("drift stats: %+v", st)
	}
}
