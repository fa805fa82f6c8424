package core

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/testkit"
)

// TestWorkerSourceMatchesLookup is the oracle for the worker-local
// lookup: over a learned repository, rows that hit, rows that miss on a
// bucket with no entry, and unforeseen rows each get from a
// WorkerSource exactly what Repository.Lookup gives them — also after a
// Put lands between two passes. The repository's counters do not move
// until Flush, which moves them by what the same lookups through Lookup
// move them by; a second Flush moves them by nothing. Signatures Lookup
// rejects are rejected too, and count nothing.
func TestWorkerSourceMatchesLookup(t *testing.T) {
	repo, rows := lookupRowsFixture(t)
	src := NewWorkerSource(repo)
	var hits, misses, unforeseen int
	pass := func(stage string) {
		t.Helper()
		for bucket := 0; bucket <= 3; bucket++ {
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
			for i, row := range rows {
				got, err := src.Lookup(&Signature{Events: repo.Events(), Values: row}, bucket)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Errorf("%s bucket %d row %d: WorkerSource %+v, Lookup %+v", stage, bucket, i, got, want[i])
				}
				switch {
				case got.Hit:
					hits++
				case got.Unforeseen:
					unforeseen++
				default:
					misses++
				}
			}
			if h, m := repo.LookupCounts(); h != h1 || m != m1 {
				t.Errorf("%s bucket %d: counters moved %d/%d before Flush", stage, bucket, h-h1, m-m1)
			}
			src.Flush()
			if h, m := repo.LookupCounts(); h-h1 != h1-h0 || m-m1 != m1-m0 {
				t.Errorf("%s bucket %d: Flush moved the counters %d/%d, Lookup moves them %d/%d",
					stage, bucket, h-h1, m-m1, h1-h0, m1-m0)
			}
			h2, m2 := repo.LookupCounts()
			src.Flush()
			if h, m := repo.LookupCounts(); h != h2 || m != m2 {
				t.Errorf("%s bucket %d: a second Flush moved the counters %d/%d", stage, bucket, h-h2, m-m2)
			}
		}
	}
	pass("learned")
	// Bucket 2 gains an entry for one class; the next pass must see it.
	class, _, _, err := repo.Classify(&Signature{Events: repo.Events(), Values: rows[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put(class, 2, cloud.Allocation{Type: cloud.XLarge, Count: 3}); err != nil {
		t.Fatal(err)
	}
	if alloc, ok := repo.Get(class, 2); !ok || alloc != (cloud.Allocation{Type: cloud.XLarge, Count: 3}) {
		t.Errorf("a Put through the worker source is not in the repository: %+v, %v", alloc, ok)
	}
	pass("after put")
	if hits == 0 || misses == 0 || unforeseen == 0 {
		t.Fatalf("fixture covers %d hits, %d misses and %d unforeseen rows; want each", hits, misses, unforeseen)
	}

	h0, m0 := repo.LookupCounts()
	short := rows[0][:len(rows[0])-1]
	for _, sig := range []*Signature{
		{Events: repo.Events()[:len(short)], Values: short},
		{Events: repo.Events(), Values: short},
		{},
	} {
		_, wantErr := repo.Lookup(sig, 0)
		if _, err := src.Lookup(sig, 0); wantErr == nil || err == nil {
			t.Errorf("a %d-value signature: Lookup error %v, WorkerSource error %v; want both rejected", len(sig.Values), wantErr, err)
		}
	}
	src.Flush()
	if h, m := repo.LookupCounts(); h != h0 || m != m0 {
		t.Errorf("rejected signatures moved the counters by %d/%d", h-h0, m-m0)
	}
}

// TestWorkerSourceLookupZeroAlloc pins the worker-local lookup at zero
// allocations, with no pool to warm.
func TestWorkerSourceLookupZeroAlloc(t *testing.T) {
	repo, rows := lookupRowsFixture(t)
	src := NewWorkerSource(repo)
	sig := &Signature{Events: repo.Events(), Values: rows[4]}
	lookup := func() {
		if _, err := src.Lookup(sig, 0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, lookup); allocs > 0 {
		t.Errorf("WorkerSource.Lookup allocates %v times per call, want 0", allocs)
		t.Log(testkit.AllocSites(100, lookup))
	}
}
