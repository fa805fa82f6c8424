package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
)

// TestPersistenceUnderConcurrency round-trips Save/LoadRepository
// while concurrent Classify/Lookup/Put traffic keeps hammering the
// old version, then swaps the restored repository in through a Handle
// and asserts it serves decisions identical to the original. This is
// the dejavud snapshot story: snapshots are taken under live load and
// a restarted daemon must be indistinguishable decision-wise. Run
// with -race.
func TestPersistenceUnderConcurrency(t *testing.T) {
	repo := learnTestRepository(t, 21)
	events := repo.EventsRef()
	h, err := NewHandle(repo)
	if err != nil {
		t.Fatal(err)
	}

	// Probe signatures spanning foreseen and unforeseen space.
	var probes [][]float64
	for i := 0; i < 32; i++ {
		row := make([]float64, len(events))
		for j := range row {
			row[j] = float64(1+i*40) * float64(j+1)
		}
		probes = append(probes, row)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			sig := &Signature{Events: events}
			i := 0
			for !stop.Load() {
				cur := h.Current()
				sig.Values = probes[i%len(probes)]
				if _, _, _, err := cur.Repo.Classify(sig); err != nil {
					t.Error(err)
					return
				}
				if _, err := cur.Repo.Lookup(sig, worker%3); err != nil {
					t.Error(err)
					return
				}
				// Writers keep mutating the entry map of whatever
				// version is live while snapshots are being taken.
				class := i % cur.Repo.Classes()
				alloc := cloud.Allocation{Type: cloud.Large, Count: 1 + i%8}
				if err := cur.Repo.Put(class, worker, alloc); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}(g)
	}

	// Several snapshot/restore/swap cycles under the live load above.
	for round := 0; round < 5; round++ {
		var buf bytes.Buffer
		old := h.Current().Repo
		if err := SaveRepository(old, &buf); err != nil {
			t.Fatal(err)
		}
		restored, err := LoadRepository(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Swap(restored); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiesced: the final restored repository must decide identically
	// to a clean save/load of itself — and, for the learned artifacts,
	// identically to the original.
	final := h.Current().Repo
	if got, want := h.Current().Version, uint64(6); got != want {
		t.Fatalf("version %d after 5 swaps, want %d", got, want)
	}
	sig := &Signature{Events: events}
	for i, row := range probes {
		sig.Values = row
		c0, cert0, unf0, err0 := repo.Classify(sig)
		c1, cert1, unf1, err1 := final.Classify(sig)
		if err0 != nil || err1 != nil {
			t.Fatalf("probe %d: classify errs %v / %v", i, err0, err1)
		}
		if c0 != c1 || cert0 != cert1 || unf0 != unf1 {
			t.Errorf("probe %d: restored decision (%d,%v,%v) != original (%d,%v,%v)",
				i, c1, cert1, unf1, c0, cert0, unf0)
		}
	}

	// Entries survive the JSON round trip: whatever the final snapshot
	// carried is what the restored repository serves.
	var buf bytes.Buffer
	if err := SaveRepository(final, &buf); err != nil {
		t.Fatal(err)
	}
	reread, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := final.Snapshot(), reread.Snapshot()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("entries diverged across round trip:\n%v\n%v", a, b)
	}
}
