package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/services"
	"repro/internal/trace"
)

// --- Repository persistence -----------------------------------------

func TestRepositorySaveLoadRoundTrip(t *testing.T) {
	repo, _, prof, _ := learnMessengerDay(t, 21)
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Classes() != repo.Classes() {
		t.Fatalf("classes %d -> %d", repo.Classes(), back.Classes())
	}
	evs := repo.Events()
	backEvs := back.Events()
	for i := range evs {
		if evs[i] != backEvs[i] {
			t.Fatalf("event %d: %s -> %s", i, evs[i], backEvs[i])
		}
	}
	// Entries preserved.
	if len(back.Snapshot()) != len(repo.Snapshot()) {
		t.Fatalf("entries %d -> %d", len(repo.Snapshot()), len(back.Snapshot()))
	}
	for i, e := range repo.Snapshot() {
		b := back.Snapshot()[i]
		if e.Class != b.Class || e.Bucket != b.Bucket || !e.Allocation.Equal(b.Allocation) {
			t.Fatalf("entry %d: %+v -> %+v", i, e, b)
		}
	}
	// Classification behaviour preserved across a workload sweep.
	svc := services.NewCassandra()
	for _, clients := range []float64{60, 170, 320, 470} {
		sig, err := prof.Profile(services.Workload{Clients: clients, Mix: svc.DefaultMix()}, repo.Events())
		if err != nil {
			t.Fatal(err)
		}
		c1, _, u1, err := repo.Classify(sig)
		if err != nil {
			t.Fatal(err)
		}
		c2, _, u2, err := back.Classify(sig)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 || u1 != u2 {
			t.Errorf("clients=%v: (%d,%v) vs (%d,%v)", clients, c1, u1, c2, u2)
		}
	}
}

func TestLoadRepositoryErrors(t *testing.T) {
	if _, err := LoadRepository(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := LoadRepository(bytes.NewBufferString(`{"version":99}`)); err == nil {
		t.Error("unknown version should error")
	}
	// Unknown instance type in an entry.
	repo, _, _, _ := learnMessengerDay(t, 22)
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.ReplaceAll(buf.Bytes(), []byte(`"large"`), []byte(`"gpu9000"`))
	if _, err := LoadRepository(bytes.NewReader(corrupted)); err == nil {
		t.Error("unknown instance type should error")
	}
}

// --- Cross-tenant shared tuning cache --------------------------------

func TestSharedTuningCacheAcrossTenants(t *testing.T) {
	cache := NewSharedTuningCache()
	rng := rand.New(rand.NewSource(23))
	tr := trace.Messenger(trace.SynthConfig{Rng: rng}).ScaleTo(480)
	day0, err := tr.Day(0)
	if err != nil {
		t.Fatal(err)
	}

	learnTenant := func(seed int64) int {
		svc := services.NewCassandra()
		tenantRng := rand.New(rand.NewSource(seed))
		prof, err := NewProfiler(svc, tenantRng)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewSharedTuner(cache, svc, inner)
		if err != nil {
			t.Fatal(err)
		}
		before := cache.Misses()
		_, _, err = Learn(LearnConfig{
			Profiler:  prof,
			Tuner:     shared,
			Workloads: WorkloadsFromTrace(day0, svc.DefaultMix()),
			Rng:       tenantRng,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cache.Misses() - before
	}

	missesA := learnTenant(1)
	missesB := learnTenant(2)
	if missesA == 0 {
		t.Fatal("first tenant should populate the cache (misses > 0)")
	}
	if missesB >= missesA {
		t.Errorf("second tenant misses=%d should be below first=%d (experience reuse)",
			missesB, missesA)
	}
	if cache.Hits() == 0 {
		t.Error("no cross-tenant hits recorded")
	}
	if len(cache.entries) == 0 {
		t.Error("cache should hold memoized operating points")
	}
}

func TestSharedTunerDuration(t *testing.T) {
	cache := NewSharedTuningCache()
	svc := services.NewCassandra()
	inner, _ := NewScaleOutTuner(svc, cloud.Large, 2, 10)
	shared, err := NewSharedTuner(cache, svc, inner)
	if err != nil {
		t.Fatal(err)
	}
	w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
	if _, err := shared.Tune(w, 0); err != nil {
		t.Fatal(err)
	}
	if shared.Duration() == 0 {
		t.Error("miss should cost inner tuner time")
	}
	if _, err := shared.Tune(w, 0); err != nil {
		t.Fatal(err)
	}
	if shared.Duration() != 0 {
		t.Error("hit should cost nothing")
	}
}

func TestSharedTunerValidation(t *testing.T) {
	svc := services.NewCassandra()
	inner, _ := NewScaleOutTuner(svc, cloud.Large, 2, 10)
	if _, err := NewSharedTuner(nil, svc, inner); err == nil {
		t.Error("nil cache should error")
	}
	if _, err := NewSharedTuner(NewSharedTuningCache(), nil, inner); err == nil {
		t.Error("nil service should error")
	}
	if _, err := NewSharedTuner(NewSharedTuningCache(), svc, nil); err == nil {
		t.Error("nil inner should error")
	}
	shared, _ := NewSharedTuner(NewSharedTuningCache(), svc, inner)
	if _, err := shared.Tune(services.Workload{Clients: 1}, 1.5); err == nil {
		t.Error("bad interference should error")
	}
}
