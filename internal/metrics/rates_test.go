package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// TestDenseIndexBijection: every catalog event has a unique dense
// index, HPC events come first, and EventAt inverts Index.
func TestDenseIndexBijection(t *testing.T) {
	evs := AllEvents()
	if len(denseOrder) != len(evs) {
		t.Fatalf("%d dense indices != catalog size %d", len(denseOrder), len(evs))
	}
	seen := make(map[int]bool)
	for i, ev := range evs {
		idx := Index(ev)
		if idx != i {
			t.Errorf("AllEvents()[%d] = %s has Index %d, want %d", i, ev, idx, i)
		}
		if seen[idx] {
			t.Errorf("duplicate dense index %d for %s", idx, ev)
		}
		seen[idx] = true
		if EventAt(idx) != ev {
			t.Errorf("EventAt(%d) = %s, want %s", idx, EventAt(idx), ev)
		}
		if IsHPCIndex(idx) != IsHPC(ev) {
			t.Errorf("IsHPCIndex(%d) != IsHPC(%s)", idx, ev)
		}
	}
	nHPC := numHPC
	for i, ev := range evs {
		if (i < nHPC) != IsHPC(ev) {
			t.Errorf("event %s at %d breaks HPC-first ordering", ev, i)
		}
	}
	if Index("no_such_event") != -1 {
		t.Error("unknown event should have index -1")
	}
	for ev, idx := range map[Event]int{
		EvBusqEmpty: IdxBusqEmpty, EvCPUClkUnhalt: IdxCPUClkUnhalt, EvL2Ads: IdxL2Ads,
		EvL2RejectBusq: IdxL2RejectBusq, EvL2St: IdxL2St, EvLoadBlock: IdxLoadBlock,
		EvStoreBlock: IdxStoreBlock, EvPageWalks: IdxPageWalks, EvFlopsRate: IdxFlopsRate,
		EvInstRetired: IdxInstRetired, EvBrInstRetired: IdxBrInstRetired,
		EvBrMispredict: IdxBrMispredict, EvL1DRepl: IdxL1DRepl, EvL2Lines: IdxL2Lines,
		EvDTLBMiss: IdxDTLBMiss, EvXenCPU: IdxXenCPU, EvXenMem: IdxXenMem,
		EvXenNetTx: IdxXenNetTx, EvXenNetRx: IdxXenNetRx, EvXenVBDRd: IdxXenVBDRd,
		EvXenVBDWr: IdxXenVBDWr,
	} {
		if Index(ev) != idx {
			t.Errorf("%s has Index %d, its constant says %d", ev, Index(ev), idx)
		}
	}
	if IsHPC("no_such_event") {
		t.Error("unknown event should not be HPC")
	}
}

// denseSource is a Source over a full dense rate vector, for monitor
// tests.
type denseSource []float64

func (d denseSource) RatesAt(idx []int, dst []float64) {
	for k, i := range idx {
		dst[k] = 0
		if i >= 0 {
			dst[k] = d[i]
		}
	}
}

// denseRates returns a distinct rate for every catalog event.
func denseRates(base, step float64) denseSource {
	d := make(denseSource, len(denseOrder))
	for i := range d {
		d[i] = base + float64(i)*step
	}
	return d
}

// TestSampleVectorMatchesSample: at a fixed seed the vector path and
// the map-returning Sample must produce bit-identical readings, for a
// dense source and a map-backed StaticSource.
func TestSampleVectorMatchesSample(t *testing.T) {
	src := denseRates(100, 13)
	events := AllEvents()[:10]

	legacy, err := NewMonitor(events, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewMonitor(events, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := legacy.Sample(src, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(events))
	if err := fast.SampleVector(src, 10*time.Second, dst); err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if dst[i] != s.Values[ev] {
			t.Fatalf("event %s: vector %v != map %v", ev, dst[i], s.Values[ev])
		}
	}

	// The map-backed source reads the same rates by event name.
	mapOnly := StaticSource{}
	for i, r := range src {
		mapOnly[EventAt(i)] = r
	}
	legacy2, _ := NewMonitor(events, rand.New(rand.NewSource(9)))
	fast2, _ := NewMonitor(events, rand.New(rand.NewSource(9)))
	s2, err := legacy2.Sample(mapOnly, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := fast2.SampleVector(mapOnly, 10*time.Second, dst); err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if dst[i] != s2.Values[ev] {
			t.Fatalf("map-only source, event %s: vector %v != map %v", ev, dst[i], s2.Values[ev])
		}
	}
}

// TestSampleVectorAfterEventsReplaced: swapping the Events slice for
// another of the SAME length must re-resolve the dense indices — a
// length-only cache check would silently sample the old events.
func TestSampleVectorAfterEventsReplaced(t *testing.T) {
	src := denseRates(1000, 1)
	mon, err := NewMonitor([]Event{EvBusqEmpty, EvCPUClkUnhalt}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 2)
	if err := mon.SampleVector(src, 10*time.Second, dst); err != nil {
		t.Fatal(err)
	}
	mon.Events = []Event{EvXenNetTx, EvXenNetRx} // same length, different events
	ref, err := NewMonitor(mon.Events, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	mon.Rng = rand.New(rand.NewSource(3))
	if err := mon.SampleVector(src, 10*time.Second, dst); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 2)
	if err := ref.SampleVector(src, 10*time.Second, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("after Events replacement: value[%d] = %v, want %v (stale dense indices?)", i, dst[i], want[i])
		}
	}
}

// TestSampleVectorValidation covers the error paths.
func TestSampleVectorValidation(t *testing.T) {
	mon, err := NewMonitor(AllEvents()[:4], rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	if err := mon.SampleVector(nil, 10*time.Second, dst); err == nil {
		t.Error("expected error for nil source")
	}
	if err := mon.SampleVector(StaticSource{}, 0, dst); err == nil {
		t.Error("expected error for non-positive window")
	}
	if err := mon.SampleVector(StaticSource{}, 10*time.Second, dst[:2]); err == nil {
		t.Error("expected error for mismatched dst length")
	}
}
