package services

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// vectorTestCases enumerates every service with every mix its API
// exposes — the dense fast path must cover the full matrix.
func vectorTestCases() []struct {
	svc   Service
	mixes []Mix
} {
	c := NewCassandra()
	s := NewSPECWeb()
	r := NewRUBiS()
	return []struct {
		svc   Service
		mixes []Mix
	}{
		{c, []Mix{c.DefaultMix(), c.ReadMostlyMix()}},
		{s, []Mix{s.DefaultMix(), s.BankingMix(), s.EcommerceMix()}},
		{r, []Mix{r.DefaultMix(), r.BrowsingMix(), r.SellingMix()}},
	}
}

// catalogIdx is every dense index in order: a full-catalog read.
func catalogIdx() []int {
	idx := make([]int, len(metrics.AllEvents()))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// catalogRates is a full-catalog read keyed by event, for assertions.
func catalogRates(s Service, w Workload, instances int) map[metrics.Event]float64 {
	dst := make([]float64, len(metrics.AllEvents()))
	s.MetricRatesAt(w, instances, catalogIdx(), dst)
	out := make(map[metrics.Event]float64, len(dst))
	for i, r := range dst {
		out[metrics.EventAt(i)] = r
	}
	return out
}

// TestMetricRatesAtMatchesCatalogRead is the property test for the
// indexed read: for every service × mix × load × instance count, any
// index subset in any order — each single index, random subsets,
// permutations of the whole catalog, indices outside it — reads
// exactly (bit for bit) the matching entries of the full-catalog read,
// and an index outside the catalog reads 0. The runtime reads a
// signature's one or two events; learning reads everything; both must
// see the same rates.
func TestMetricRatesAtMatchesCatalogRead(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	all := catalogIdx()
	n := len(all)
	full := make([]float64, n)
	dst := make([]float64, n+1)
	check := func(svc Service, w Workload, instances int, idx []int) {
		t.Helper()
		for k := range dst {
			dst[k] = math.NaN() // an entry the read skips shows up
		}
		svc.MetricRatesAt(w, instances, idx, dst[:len(idx)])
		for k, i := range idx {
			want := 0.0
			if i >= 0 {
				want = full[i]
			}
			if math.Float64bits(dst[k]) != math.Float64bits(want) {
				t.Fatalf("%s mix=%s clients=%v n=%d idx=%v: entry %d (index %d) = %v, full read %v",
					svc.Name(), w.Mix.Name, w.Clients, instances, idx, k, i, dst[k], want)
			}
		}
	}
	for _, tc := range vectorTestCases() {
		for _, mix := range tc.mixes {
			for _, clients := range []float64{0, 1, 37.5, 250, 1200, rng.Float64() * 900} {
				for _, instances := range []int{0, 1, 2, 7} {
					w := Workload{Clients: clients, Mix: mix}
					tc.svc.MetricRatesAt(w, instances, all, full)
					for i := range all {
						check(tc.svc, w, instances, all[i:i+1])
					}
					for trial := 0; trial < 8; trial++ {
						perm := rng.Perm(n)
						check(tc.svc, w, instances, perm)
						check(tc.svc, w, instances, perm[:1+rng.Intn(n)])
					}
					check(tc.svc, w, instances, []int{-1, all[n-1], -1, all[0]})
					check(tc.svc, w, instances, nil)
				}
			}
		}
	}
}

// TestProfileSourceRatesAt: the Source the Monitor reads through is
// the service's own read, with zero instances read as one.
func TestProfileSourceRatesAt(t *testing.T) {
	idx := catalogIdx()
	got := make([]float64, len(idx))
	want := make([]float64, len(idx))
	for _, tc := range vectorTestCases() {
		w := Workload{Clients: 333, Mix: tc.mixes[0]}
		for _, instances := range []int{0, 4} {
			src := &ProfileSource{Service: tc.svc, Workload: w, Instances: instances}
			src.RatesAt(idx, got)
			tc.svc.MetricRatesAt(w, max(instances, 1), idx, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: event %s source %v, service %v", tc.svc.Name(), instances, metrics.EventAt(i), got[i], want[i])
				}
			}
		}
	}
}

// TestPerfMemoMatchesDirect: the memo must be bit-identical to direct
// Perf evaluation over arbitrary call sequences (including revisits
// that exercise the hit path and cell collisions).
func TestPerfMemoMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range vectorTestCases() {
		memo := NewPerfMemo(tc.svc)
		points := make([]struct {
			w   Workload
			cap float64
		}, 40)
		for i := range points {
			points[i].w = Workload{Clients: rng.Float64() * 900, Mix: tc.mixes[rng.Intn(len(tc.mixes))]}
			points[i].cap = rng.Float64() * 12
		}
		for trial := 0; trial < 400; trial++ {
			p := points[rng.Intn(len(points))]
			got := memo.Perf(&p.w, p.cap)
			want := tc.svc.Perf(p.w, p.cap)
			if got != want {
				t.Fatalf("%s: memo %+v != direct %+v at clients=%v cap=%v",
					tc.svc.Name(), got, want, p.w.Clients, p.cap)
			}
		}
	}
}
