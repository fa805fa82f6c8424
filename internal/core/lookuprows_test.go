package core

import (
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/services"
	"repro/internal/testkit"
)

// lookupRowsFixture learns a messenger-day repository and profiles
// rows across its range and far beyond it: hits, bucket misses and
// novelty rejections.
func lookupRowsFixture(tb testing.TB) (*Repository, [][]float64) {
	tb.Helper()
	repo, _, prof, _ := learnMessengerDay(tb, 31)
	var rows [][]float64
	for _, clients := range []float64{15, 40, 80, 120, 170, 230, 300, 360, 420, 480, 3000, 20000} {
		sig, err := prof.Profile(services.Workload{Clients: clients, Mix: prof.Service.DefaultMix()}, repo.Events())
		if err != nil {
			tb.Fatal(err)
		}
		rows = append(rows, sig.Values)
	}
	far := append([]float64(nil), rows[5]...)
	for i := range far {
		far[i] *= 100
	}
	return repo, append(rows, far)
}

// TestLookupRowsMatchesLookup is the oracle for the batched pass: every
// row of a LookupRows batch gets exactly what Lookup gives it, in every
// bucket with and without an entry, and the counters move by the same
// deltas — also after a Put lands between two batches. The learned
// repository's classifier is certain of every row it places, so a twin
// of it with a threshold above every certainty holds the rows under
// the threshold. A batch with a bad last row, and an empty batch, count
// nothing.
func TestLookupRowsMatchesLookup(t *testing.T) {
	learned, rows := lookupRowsFixture(t)
	strict, err := NewRepository(learned.events, learned.standardizer, learned.classifier,
		learned.centroids, learned.noveltyRadius, 1.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := strict.putAll(learned.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var hits, misses, novel, uncertain int
	for _, repo := range []*Repository{learned, strict} {
		checkLookupRows(t, repo, rows, &hits, &misses, &novel, &uncertain)
	}
	if hits == 0 || misses == 0 || novel == 0 || uncertain == 0 {
		t.Fatalf("fixture covers %d hits, %d misses, %d novel and %d uncertain rows; want each", hits, misses, novel, uncertain)
	}
}

// checkLookupRows compares LookupRows with Lookup on one repository,
// before and after a Put, and tallies the kinds of result it saw.
func checkLookupRows(t *testing.T, repo *Repository, rows [][]float64, hits, misses, novel, uncertain *int) {
	t.Helper()
	lookupEach := func(bucket int) ([]LookupResult, int64, int64) {
		h0, m0 := repo.LookupCounts()
		want := make([]LookupResult, len(rows))
		for i, row := range rows {
			res, err := repo.Lookup(&Signature{Events: repo.Events(), Values: row}, bucket)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		h1, m1 := repo.LookupCounts()
		return want, h1 - h0, m1 - m0
	}
	check := func(stage string) {
		t.Helper()
		for bucket := 0; bucket <= 3; bucket++ {
			want, wantHits, wantMisses := lookupEach(bucket)
			h0, m0 := repo.LookupCounts()
			got := make([]LookupResult, len(rows)+1)
			if err := repo.LookupRows(bucket, rows, got); err != nil {
				t.Fatal(err)
			}
			h1, m1 := repo.LookupCounts()
			if h1-h0 != wantHits || m1-m0 != wantMisses {
				t.Errorf("%s bucket %d: counters moved %d/%d, Lookup moves them %d/%d",
					stage, bucket, h1-h0, m1-m0, wantHits, wantMisses)
			}
			for i := range rows {
				if got[i] != want[i] {
					t.Errorf("%s bucket %d row %d: LookupRows %+v, Lookup %+v", stage, bucket, i, got[i], want[i])
				}
				switch r := want[i]; {
				case r.Hit:
					*hits++
				case !r.Unforeseen:
					*misses++
				case r.Certainty < repo.certaintyThreshold:
					*uncertain++
				default:
					*novel++
				}
			}
			if got[len(rows)] != (LookupResult{}) {
				t.Errorf("%s bucket %d: LookupRows wrote past its rows", stage, bucket)
			}
		}
	}
	check("learned")
	// Bucket 2 gains an entry for one class; the next batch must see it.
	class, _, _, err := repo.Classify(&Signature{Events: repo.Events(), Values: rows[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Put(class, 2, cloud.Allocation{Type: cloud.XLarge, Count: 3}); err != nil {
		t.Fatal(err)
	}
	check("after put")

	h0, m0 := repo.LookupCounts()
	bad := append(append([][]float64(nil), rows...), rows[0][:len(rows[0])-1])
	if err := repo.LookupRows(0, bad, make([]LookupResult, len(bad))); err == nil {
		t.Error("a batch whose last row is short was served")
	}
	if err := repo.LookupRows(0, nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := repo.LookupRows(0, rows, make([]LookupResult, len(rows)-1)); err == nil {
		t.Error("a batch with too few result slots was served")
	}
	if h1, m1 := repo.LookupCounts(); h1 != h0 || m1 != m0 {
		t.Errorf("rejected and empty batches moved the counters by %d/%d", h1-h0, m1-m0)
	}
}

// TestLookupRowsZeroAlloc pins the batched pass at zero allocations
// for a full lockstep block's frame.
func TestLookupRowsZeroAlloc(t *testing.T) {
	repo, rows := lookupRowsFixture(t)
	batch := make([][]float64, 256)
	for i := range batch {
		batch[i] = rows[i%len(rows)]
	}
	out := make([]LookupResult, len(batch))
	lookup := func() {
		if err := repo.LookupRows(0, batch, out); err != nil {
			t.Fatal(err)
		}
	}
	lookup() // warm the pool
	if allocs := testing.AllocsPerRun(100, lookup); allocs > 0 {
		t.Errorf("LookupRows allocates %v times per 256-row batch, want 0", allocs)
		t.Log(testkit.AllocSites(100, lookup))
	}
}

// BenchmarkRepositoryLookupRows serves one frame of n rows in one
// batched pass (rows-n) and, for reference, as n Lookup calls
// (lookup-n); ns/row is per signature.
func BenchmarkRepositoryLookupRows(b *testing.B) {
	repo, rows := lookupRowsFixture(b)
	for _, n := range []int{64, 256} {
		batch := make([][]float64, n)
		for i := range batch {
			batch[i] = rows[i%len(rows)]
		}
		out := make([]LookupResult, n)
		b.Run(fmt.Sprintf("rows-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := repo.LookupRows(0, batch, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
		b.Run(fmt.Sprintf("lookup-%d", n), func(b *testing.B) {
			sig := &Signature{Events: repo.Events()}
			for i := 0; i < b.N; i++ {
				for j, row := range batch {
					sig.Values = row
					res, err := repo.Lookup(sig, 0)
					if err != nil {
						b.Fatal(err)
					}
					out[j] = res
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
