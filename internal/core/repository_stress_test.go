package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
)

// stressSignature returns a signature that classifies into class 1
// (near the (10,10) raw-space centroid of buildTestRepository).
func stressSignature(repo *Repository) *Signature {
	return &Signature{Events: repo.Events(), Values: []float64{10, 10}}
}

// TestRepositoryConcurrentPutGet hammers Put and Get for every class
// and bucket from many goroutines; run with -race to catch unguarded
// access to the entry map.
func TestRepositoryConcurrentPutGet(t *testing.T) {
	repo := buildTestRepository(t)
	const goroutines = 16
	const rounds = 200

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				class := (g + i) % repo.Classes()
				bucket := i % (maxInterferenceBucket + 1)
				a := cloud.Allocation{Type: cloud.Large, Count: 2 + i%8}
				if err := repo.Put(class, bucket, a); err != nil {
					t.Errorf("Put(%d, %d): %v", class, bucket, err)
					return
				}
				if got, ok := repo.Get(class, bucket); !ok {
					t.Errorf("Get(%d, %d) missed right after Put", class, bucket)
					return
				} else if got.Count < 2 || got.Count > 9 {
					t.Errorf("Get(%d, %d) = %v, outside any written value", class, bucket, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRepositoryConcurrentLookupCounters runs a known-hit lookup from
// many goroutines and checks the atomic hit/miss counters add up
// exactly once quiescent.
func TestRepositoryConcurrentLookupCounters(t *testing.T) {
	repo := buildTestRepository(t)
	sig := stressSignature(repo)
	class, _, unforeseen, err := repo.Classify(sig)
	if err != nil {
		t.Fatal(err)
	}
	if unforeseen {
		t.Fatal("stress signature should classify")
	}
	// Cache an allocation for bucket 0 only: even buckets hit, odd
	// buckets miss.
	if err := repo.Put(class, 0, cloud.Allocation{Type: cloud.Large, Count: 4}); err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	const lookups = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				res, err := repo.Lookup(sig, (g+i)%2)
				if err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
				if bucket := (g + i) % 2; res.Hit != (bucket == 0) {
					t.Errorf("bucket %d: hit=%v", bucket, res.Hit)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	hits, misses := repo.LookupCounts()
	if hits+misses != goroutines*lookups {
		t.Errorf("hits %d + misses %d = %d, want %d lookups",
			hits, misses, hits+misses, goroutines*lookups)
	}
	// Each goroutine alternates buckets, so hits and misses are
	// exactly half each (lookups is even).
	if hits != goroutines*lookups/2 {
		t.Errorf("hits = %d, want %d", hits, goroutines*lookups/2)
	}
	if want := 0.5; repo.HitRate() != want {
		t.Errorf("HitRate = %v, want %v", repo.HitRate(), want)
	}
}

// TestRepositoryConcurrentMixed exercises the full surface at once —
// Put, Get, Lookup, Classify, Snapshot, HitRate, and Save — the access
// pattern of a fleet of controllers sharing one repository.
func TestRepositoryConcurrentMixed(t *testing.T) {
	repo := buildTestRepository(t)
	sig := stressSignature(repo)
	if err := repo.Put(1, 0, cloud.Allocation{Type: cloud.Large, Count: 3}); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const rounds = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (g + i) % 5 {
				case 0:
					bucket := i % (maxInterferenceBucket + 1)
					if err := repo.Put(i%repo.Classes(), bucket,
						cloud.Allocation{Type: cloud.Large, Count: 2 + i%6}); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 1:
					repo.Get(i%repo.Classes(), i%4)
				case 2:
					if _, err := repo.Lookup(sig, i%3); err != nil {
						t.Errorf("Lookup: %v", err)
						return
					}
				case 3:
					snap := repo.Snapshot()
					for j := 1; j < len(snap); j++ {
						prev, cur := snap[j-1], snap[j]
						if cur.Class < prev.Class ||
							(cur.Class == prev.Class && cur.Bucket <= prev.Bucket) {
							t.Errorf("Snapshot not sorted/unique at %d: %+v then %+v", j, prev, cur)
							return
						}
					}
				default:
					var buf bytes.Buffer
					if err := repo.Save(&buf); err != nil {
						t.Errorf("Save: %v", err)
						return
					}
					repo.HitRate()
				}
			}
		}(g)
	}
	wg.Wait()

	// The serialized snapshot must round-trip after the storm.
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(restored.Snapshot()), len(repo.Snapshot()); got != want {
		t.Errorf("restored %d entries, want %d", got, want)
	}
}

// TestRepositoryGetDuringPut pins the copy-on-put contract under
// -race: a writer sees its own Put at once, and concurrent readers —
// who take no lock — only ever see a fully built map: every entry the
// writer published in an earlier round is there with the value of that
// round or a later one, never missing and never half-written.
func TestRepositoryGetDuringPut(t *testing.T) {
	repo := buildTestRepository(t)
	const rounds = 300
	buckets := maxInterferenceBucket + 1
	var published atomic.Int64 // rounds fully written
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for published.Load() < rounds {
				floor := published.Load()
				n := repo.Len()
				for class := 0; class < repo.Classes(); class++ {
					for bucket := 0; bucket < buckets; bucket++ {
						got, ok := repo.Get(class, bucket)
						if floor > 0 && !ok {
							t.Errorf("Get(%d, %d) missed after round %d published it", class, bucket, floor)
							return
						}
						if ok && (got.Type != cloud.Large || int64(got.Count) < 1+floor || got.Count > 1+rounds) {
							t.Errorf("Get(%d, %d) = %v after round %d", class, bucket, got, floor)
							return
						}
					}
				}
				if floor > 0 && n != repo.Classes()*buckets {
					t.Errorf("Len() = %d after round %d, want %d", n, floor, repo.Classes()*buckets)
					return
				}
			}
		}()
	}
	for round := 1; round <= rounds; round++ {
		want := cloud.Allocation{Type: cloud.Large, Count: 1 + round}
		for class := 0; class < repo.Classes(); class++ {
			for bucket := 0; bucket < buckets; bucket++ {
				if err := repo.Put(class, bucket, want); err != nil {
					t.Fatal(err)
				}
				if got, ok := repo.Get(class, bucket); !ok || got != want {
					t.Fatalf("Get(%d, %d) = %v, %v right after Put(%v)", class, bucket, got, ok, want)
				}
			}
		}
		published.Store(int64(round))
	}
	wg.Wait()
}

// BenchmarkRepositoryLookupParallel is the contended form of
// BenchmarkRepositoryLookup: every core classifies and reads the entry
// map of one shared repository at once (/lookup), and reads the entry
// map alone (/get) — the read a fleet of controllers and every row of a
// served batch performs, which takes no lock.
func BenchmarkRepositoryLookupParallel(b *testing.B) {
	// Mirrors buildTestRepository without *testing.T plumbing.
	t := &testing.T{}
	repo := buildTestRepository(t)
	if t.Failed() {
		b.Fatal("repository setup failed")
	}
	sig := stressSignature(repo)
	class, _, _, err := repo.Classify(sig)
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Put(class, 0, cloud.Allocation{Type: cloud.Large, Count: 4}); err != nil {
		b.Fatal(err)
	}
	b.Run("lookup", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := repo.Lookup(sig, 0); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("get", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, ok := repo.Get(class, 0); !ok {
					b.Error("Get missed")
					return
				}
			}
		})
	})
}
