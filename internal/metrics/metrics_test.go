package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestCatalogShape(t *testing.T) {
	hpc := append([]Event(nil), eventByIndex[:numHPC]...)
	if len(hpc) != 60 {
		t.Errorf("HPC events=%d want 60 (paper: up to 60 monitorable events)", len(hpc))
	}
	xen := append([]Event(nil), eventByIndex[numHPC:]...)
	if len(xen) != 6 {
		t.Errorf("xentop events=%d want 6", len(xen))
	}
	all := AllEvents()
	if len(all) != len(hpc)+len(xen) {
		t.Errorf("AllEvents=%d want %d", len(all), len(hpc)+len(xen))
	}
	seen := map[Event]bool{}
	for _, ev := range all {
		if seen[ev] {
			t.Errorf("duplicate event %q", ev)
		}
		seen[ev] = true
	}
}

func TestCatalogReturnsCopy(t *testing.T) {
	c := Catalog()
	c[0].Event = "mutated"
	if Catalog()[0].Event == "mutated" {
		t.Error("Catalog must return a copy")
	}
}

func TestTable1EventsPresent(t *testing.T) {
	// The eight RUBiS signature counters from Table 1 must exist.
	for _, ev := range []Event{EvBusqEmpty, EvCPUClkUnhalt, EvL2Ads,
		EvL2RejectBusq, EvL2St, EvLoadBlock, EvStoreBlock, EvPageWalks} {
		if !IsHPC(ev) {
			t.Errorf("Table 1 event %q missing or not HPC", ev)
		}
	}
}

func TestIsHPC(t *testing.T) {
	if !IsHPC(EvFlopsRate) {
		t.Error("flops should be HPC")
	}
	if IsHPC(EvXenCPU) {
		t.Error("xentop_cpu_pct should not be HPC")
	}
	if IsHPC(Event("nonexistent")) {
		t.Error("unknown event should not be HPC")
	}
}

func TestBankMultiplexFactor(t *testing.T) {
	b := DefaultBank()
	if got := b.MultiplexFactor(3); got != 1 {
		t.Errorf("factor(3)=%v want 1", got)
	}
	if got := b.MultiplexFactor(4); got != 1 {
		t.Errorf("factor(4)=%v want 1", got)
	}
	if got := b.MultiplexFactor(8); got != 2 {
		t.Errorf("factor(8)=%v want 2", got)
	}
}

func TestNewMonitorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMonitor(nil, rng); err == nil {
		t.Error("no events should error")
	}
	if _, err := NewMonitor([]Event{EvFlopsRate}, nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestMonitorSampleNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mon, err := NewMonitor([]Event{EvFlopsRate, EvXenCPU}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mon.BaseNoise = 0 // exact readings
	src := StaticSource{EvFlopsRate: 1000, EvXenCPU: 50}

	// Per-second rates must be window-independent (paper: "normalize
	// the values with the sampling time").
	s1, err := mon.Sample(src, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s10, err := mon.Sample(src, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Values[EvFlopsRate] != 1000 || s10.Values[EvFlopsRate] != 1000 {
		t.Errorf("normalized rate changed with window: %v vs %v",
			s1.Values[EvFlopsRate], s10.Values[EvFlopsRate])
	}
}

func TestMonitorSampleValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mon, _ := NewMonitor([]Event{EvFlopsRate}, rng)
	if _, err := mon.Sample(StaticSource{}, 0); err == nil {
		t.Error("zero window should error")
	}
	if _, err := mon.Sample(nil, time.Second); err == nil {
		t.Error("nil source should error")
	}
}

func TestMonitorNoiseShrinksWithWindow(t *testing.T) {
	src := StaticSource{EvFlopsRate: 1000}
	spread := func(window time.Duration) float64 {
		rng := rand.New(rand.NewSource(4))
		mon, _ := NewMonitor([]Event{EvFlopsRate}, rng)
		mon.BaseNoise = 0.10
		var vals []float64
		for i := 0; i < 200; i++ {
			s, err := mon.Sample(src, window)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, s.Values[EvFlopsRate])
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		varsum := 0.0
		for _, v := range vals {
			varsum += (v - mean) * (v - mean)
		}
		return math.Sqrt(varsum / float64(len(vals)))
	}
	short := spread(time.Second)
	long := spread(100 * time.Second)
	if long >= short {
		t.Errorf("noise should shrink with window: 1s sd=%v, 100s sd=%v", short, long)
	}
}

func TestMonitorMultiplexingAddsNoise(t *testing.T) {
	hpc := append([]Event(nil), eventByIndex[:numHPC]...)
	src := StaticSource{}
	for _, ev := range hpc {
		src[ev] = 1000
	}
	spread := func(events []Event) float64 {
		rng := rand.New(rand.NewSource(5))
		mon, _ := NewMonitor(events, rng)
		mon.BaseNoise = 0.01
		var vals []float64
		for i := 0; i < 300; i++ {
			s, err := mon.Sample(src, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, s.Values[events[0]])
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		varsum := 0.0
		for _, v := range vals {
			varsum += (v - mean) * (v - mean)
		}
		return math.Sqrt(varsum / float64(len(vals)))
	}
	within := spread(hpc[:4])  // fits registers
	beyond := spread(hpc[:40]) // 10x oversubscribed
	if beyond <= within {
		t.Errorf("multiplexing should add noise: 4ev sd=%v, 40ev sd=%v", within, beyond)
	}
}

func TestMonitorReadingsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mon, _ := NewMonitor([]Event{EvFlopsRate}, rng)
	mon.BaseNoise = 5 // absurd noise to force negative draws
	src := StaticSource{EvFlopsRate: 1}
	for i := 0; i < 500; i++ {
		s, err := mon.Sample(src, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if s.Values[EvFlopsRate] < 0 {
			t.Fatal("negative counter reading")
		}
	}
}

// TestStaticSourceRatesAt: the map-backed source answers indices in
// the order asked, and events it lacks — or outside the catalog —
// read 0.
func TestStaticSourceRatesAt(t *testing.T) {
	src := StaticSource{EvFlopsRate: 1, EvXenCPU: 2}
	dst := []float64{9, 9, 9, 9}
	src.RatesAt([]int{Index(EvXenCPU), Index(EvL2St), -1, Index(EvFlopsRate)}, dst)
	if want := []float64{2, 0, 0, 1}; !reflect.DeepEqual(dst, want) {
		t.Errorf("RatesAt = %v, want %v", dst, want)
	}
}
