package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/testkit"
)

// adaptEvents is the six-event signature tuple the time-to-adapt
// benchmark relearns over.
var adaptEvents = []metrics.Event{
	metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt, metrics.EvL2Ads,
	metrics.EvL2St, metrics.EvLoadBlock, metrics.EvXenCPU,
}

// relearnAdaptShaped is the benchmark's timed call on its own draw
// shape: 6 000 × 6 lattice signatures, MaxK 12, splitmix restarts.
func relearnAdaptShaped(t testing.TB, seed int64, workers int) []byte {
	t.Helper()
	rows := testkit.LatticeSignatures(seed, 6000, len(adaptEvents), 5)
	repo, err := RelearnFromSignatures(adaptEvents, rows, OnlineRelearnConfig{MaxK: 12, Rng: rng.New(seed), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if repo.Classes() != 5 {
		t.Fatalf("seed %d: relearn chose %d classes, the draw has 5", seed, repo.Classes())
	}
	var buf bytes.Buffer
	if err := SaveRepository(repo, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRelearnAdaptShapedGolden pins the cold relearn's output — chosen
// k, centroids, radii, tree, every saved byte — to the digests recorded
// at the commit before the learn kernels were reworked (PR 21,
// 9612381), and to being the same at any worker count.
func TestRelearnAdaptShapedGolden(t *testing.T) {
	golden := []string{
		1: "fde97545a2e3a99984ccebbd6eb95416f3be69e16af6af5f2d7c9a66b3cbb1f7",
		2: "bb7e0e862a4113ea835ff5db447c7e29fca73516919dd993e10bd68b560bcddc",
		3: "4ec985021acd779551d01574839f5d462baabc5feb61828f94f20c4b15ef4b29",
		4: "13dfb0bf44b345bd1c80964588f06eaf0f657fd6eee28d95040a1b874e17dbfb",
		5: "fda9ba3f800b530d163c1b5309846a33b53e906086d015f93b2eff45f5cc6ac9",
	}
	if testing.Short() {
		golden = golden[:3]
	}
	var first []byte
	for seed := 1; seed < len(golden); seed++ {
		saved := relearnAdaptShaped(t, int64(seed), 0)
		sum := sha256.Sum256(saved)
		if got := hex.EncodeToString(sum[:]); got != golden[seed] {
			t.Errorf("seed %d: saved repository digest %s, recorded %s", seed, got, golden[seed])
		}
		if first == nil {
			first = saved
		}
	}
	for _, workers := range []int{1, 2, 8} {
		if !bytes.Equal(first, relearnAdaptShaped(t, 1, workers)) {
			t.Errorf("seed 1: Workers=%d saves different bytes than Workers=0", workers)
		}
	}
}

// TestMinKAboveMaxKRejected: a k range with nothing in it is a
// configuration error at both learning entry points, not a one-class
// repository.
func TestMinKAboveMaxKRejected(t *testing.T) {
	rows := testkit.LatticeSignatures(1, 60, len(adaptEvents), 3)
	_, err := RelearnFromSignatures(adaptEvents, rows, OnlineRelearnConfig{MaxK: 1, Rng: rng.New(1)})
	if err == nil || !strings.Contains(err.Error(), "MinK") {
		t.Errorf("RelearnFromSignatures{MaxK: 1} (MinK is 2): err = %v, want a MinK > MaxK error", err)
	}
	svc := services.NewCassandra()
	r := rand.New(rand.NewSource(1))
	prof, err := NewProfiler(svc, r)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewScaleOutTuner(svc, svc.MaxAllocation().Type, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Learn(LearnConfig{
		Profiler:  prof,
		Tuner:     tuner,
		Workloads: []services.Workload{{Clients: 100, Mix: svc.DefaultMix()}, {Clients: 400, Mix: svc.DefaultMix()}},
		Rng:       r,
		MinK:      8,
	})
	if err == nil || !strings.Contains(err.Error(), "MinK") {
		t.Errorf("Learn{MinK: 8} (MaxK defaults to 6): err = %v, want a MinK > MaxK error", err)
	}
}
