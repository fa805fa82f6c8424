package replica

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wire"
)

// testEvents is the signature vocabulary the test repositories use.
var testEvents = []metrics.Event{metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt, metrics.EvL2Ads, metrics.EvXenCPU}

// buildRepoBytes clusters a small synthetic signature set and returns
// the serialized repository (the registry's install currency).
func buildRepoBytes(t testing.TB, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 0, 96)
	for i := 0; i < 96; i++ {
		center := float64(1 + i%3)
		row := make([]float64, len(testEvents))
		for j := range row {
			row[j] = center*10 + rng.NormFloat64()
		}
		rows = append(rows, row)
	}
	repo, err := core.RelearnFromSignatures(testEvents, rows, core.OnlineRelearnConfig{
		MaxK: 3,
		Rng:  rand.New(rand.NewSource(seed + 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// member is one test replica: a live dejavud on loopback HTTP.
type member struct {
	name string
	srv  *server.Server
	hs   *httptest.Server
}

func (m *member) spec() Spec {
	return Spec{Name: m.name, Addr: strings.TrimPrefix(m.hs.URL, "http://")}
}

func (m *member) kill() { m.hs.Close() }

// startMember brings up one empty daemon (templates arrive via the
// registry's installs).
func startMember(t testing.TB, name string) *member {
	t.Helper()
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &member{name: name, srv: srv, hs: hs}
}

// testRegistry assembles a registry over the members with fast probes.
func testRegistry(t testing.TB, members ...*member) *Registry {
	t.Helper()
	specs := make([]Spec, len(members))
	for i, m := range members {
		specs[i] = m.spec()
	}
	reg, err := New(Config{
		Replicas: specs,
		Probe:    ProbeConfig{Interval: 10 * time.Millisecond, FailAfter: 2},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

// memberClient dials one member directly, bypassing the registry.
func memberClient(t testing.TB, m *member) *client.Client {
	t.Helper()
	cl, err := client.New(client.Config{Addr: m.spec().Addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// decideVersion runs one lookup through the registry and returns the
// repository version that answered it.
func decideVersion(reg *Registry, template string) (uint64, error) {
	var req wire.Request
	var resp wire.Response
	req.SetTemplate(template)
	req.AppendRow([]float64{10, 10, 10, 10})
	if err := reg.Decide(true, &req, &resp); err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPublishThenFlipNoMixedVersions is the tentpole's acceptance
// test: while installs fan a template across the tier, concurrent
// clients never observe an older version after a newer one has been
// observed — the flip is atomic from every client's point of view.
func TestPublishThenFlipNoMixedVersions(t *testing.T) {
	a, b, c := startMember(t, "a"), startMember(t, "b"), startMember(t, "c")
	reg := testRegistry(t, a, b, c)
	data := buildRepoBytes(t, 7)
	if _, err := reg.InstallSerialized("svc", data); err != nil {
		t.Fatal(err)
	}

	// maxSeen is the linearizability probe: once any client has fully
	// observed version v, no decide that starts afterwards may answer
	// with less than v.
	var maxSeen atomic.Uint64
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := maxSeen.Load()
				v, err := decideVersion(reg, "svc")
				if err != nil {
					errCh <- err
					return
				}
				if v < before {
					errCh <- &mixedVersionError{saw: v, after: before}
					return
				}
				for {
					cur := maxSeen.Load()
					if v <= cur || maxSeen.CompareAndSwap(cur, v) {
						break
					}
				}
			}
		}()
	}

	const installs = 15
	for i := 0; i < installs; i++ {
		if _, err := reg.InstallSerialized("svc", data); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// The tier converged: every replica serves the final version.
	want := uint64(1 + installs)
	if got := reg.Status().Templates["svc"]; got != want {
		t.Fatalf("agreed version %d, want %d", got, want)
	}
	for _, m := range []*member{a, b, c} {
		h := m.srv.HealthSnapshot()
		if h.Templates["svc"].Version != want {
			t.Errorf("replica %s serves version %d, want %d", m.name, h.Templates["svc"].Version, want)
		}
	}
}

type mixedVersionError struct{ saw, after uint64 }

func (e *mixedVersionError) Error() string {
	return fmt.Sprintf("observed version %d after version %d was already observed", e.saw, e.after)
}

// TestFailoverOnDeadReplica pins automatic failover: with one of two
// replicas killed outright, every decision still succeeds, the dead
// replica is marked down, and the failover counter moves.
func TestFailoverOnDeadReplica(t *testing.T) {
	a, b := startMember(t, "a"), startMember(t, "b")
	reg := testRegistry(t, a, b)
	if _, err := reg.InstallSerialized("svc", buildRepoBytes(t, 9)); err != nil {
		t.Fatal(err)
	}
	b.kill()
	for i := 0; i < 20; i++ {
		if _, err := decideVersion(reg, "svc"); err != nil {
			t.Fatalf("decide %d with one dead replica: %v", i, err)
		}
	}
	if reg.Failovers() == 0 {
		t.Error("no decide failed over despite a dead replica in rotation")
	}
	waitFor(t, 5*time.Second, "probe to mark b down", func() bool {
		for _, rs := range reg.Status().Replicas {
			if rs.Name == "b" {
				return !rs.Alive
			}
		}
		return false
	})
}

// TestRemoveDrains pins the drain contract: Remove returns only after
// in-flight decisions finish, and the removed replica receives no
// decisions afterwards.
func TestRemoveDrains(t *testing.T) {
	a, b, c := startMember(t, "a"), startMember(t, "b"), startMember(t, "c")
	reg := testRegistry(t, a, b, c)
	if _, err := reg.InstallSerialized("svc", buildRepoBytes(t, 11)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := decideVersion(reg, "svc"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let traffic reach all replicas
	if err := reg.Remove("b"); err != nil {
		t.Fatal(err)
	}
	// After Remove returns, b must be out of rotation entirely.
	quiesced := b.srv.StatsSnapshot().Decisions
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("decide failed around the drain: %v", err)
	default:
	}
	if after := b.srv.StatsSnapshot().Decisions; after != quiesced {
		t.Errorf("drained replica served %d more decisions after Remove returned", after-quiesced)
	}
	if got := len(reg.Status().Replicas); got != 2 {
		t.Errorf("status lists %d replicas, want 2", got)
	}
}

// TestAddResyncsFromDonor pins the repair path: a fresh, empty replica
// joining a tier with agreed versions starts out of sync, is restored
// from a donor dump at the agreed version, and only then serves.
func TestAddResyncsFromDonor(t *testing.T) {
	a, b := startMember(t, "a"), startMember(t, "b")
	reg := testRegistry(t, a, b)
	data := buildRepoBytes(t, 13)
	for i := 0; i < 2; i++ {
		if _, err := reg.InstallSerialized("svc", data); err != nil {
			t.Fatal(err)
		}
	}

	c := startMember(t, "c")
	if err := reg.Add(c.spec()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "c to resync", func() bool {
		for _, rs := range reg.Status().Replicas {
			if rs.Name == "c" {
				return rs.Synced && rs.Resyncs >= 1
			}
		}
		return false
	})
	h := c.srv.HealthSnapshot()
	if got := h.Templates["svc"].Version; got != 2 {
		t.Fatalf("joined replica serves version %d, want the agreed 2", got)
	}
	if h.Templates["svc"].Entries == 0 && a.srv.HealthSnapshot().Templates["svc"].Entries != 0 {
		t.Error("joined replica lost the donor's entries")
	}
	// Duplicate admission is rejected.
	if err := reg.Add(c.spec()); err == nil {
		t.Error("adding an already-registered replica succeeded")
	}
}

// TestAdoptRelearnedVersion pins relearn election: when one replica
// relearns locally (its version moves ahead of the agreed one), the
// registry adopts the result — dumps it once and fans it out — instead
// of letting the tier diverge or relearning N times.
func TestAdoptRelearnedVersion(t *testing.T) {
	a, b := startMember(t, "a"), startMember(t, "b")
	reg := testRegistry(t, a, b)
	if _, err := reg.InstallSerialized("svc", buildRepoBytes(t, 17)); err != nil {
		t.Fatal(err)
	}

	// Simulate a's local drift relearn: a direct install bumps only a.
	acl := memberClient(t, a)
	if _, err := acl.InstallSerialized("svc", buildRepoBytes(t, 19), 0); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "tier to adopt a's version 2", func() bool {
		return reg.Status().Templates["svc"] == 2
	})
	waitFor(t, 5*time.Second, "b to serve version 2", func() bool {
		return b.srv.HealthSnapshot().Templates["svc"].Version == 2
	})
	if got := reg.Status().Adoptions; got < 1 {
		t.Errorf("adoptions = %d, want >= 1", got)
	}

	// The fanned-out content is the learner's, byte for byte.
	bcl := memberClient(t, b)
	av, adata, err := acl.DumpSerialized("svc")
	if err != nil {
		t.Fatal(err)
	}
	bv, bdata, err := bcl.DumpSerialized("svc")
	if err != nil {
		t.Fatal(err)
	}
	if av != bv || !bytes.Equal(adata, bdata) {
		t.Errorf("adopted content diverged: a@%d (%d bytes) vs b@%d (%d bytes)", av, len(adata), bv, len(bdata))
	}
}

// TestPutFansOut pins that a put through the registry is visible on
// every replica, so lookups routed anywhere see it.
func TestPutFansOut(t *testing.T) {
	a, b := startMember(t, "a"), startMember(t, "b")
	reg := testRegistry(t, a, b)
	if _, err := reg.InstallSerialized("svc", buildRepoBytes(t, 23)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put(wire.PutRequest{Template: "svc", Type: "small", Count: 3}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*member{a, b} {
		out, err := memberClient(t, m).Get(wire.GetRequest{Template: "svc"})
		if err != nil {
			t.Fatalf("get on %s: %v", m.name, err)
		}
		if !out.Hit || out.Type != "small" || out.Count != 3 {
			t.Errorf("replica %s missed the fanned-out put: %+v", m.name, out)
		}
	}
}
