package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/services"
)

// TestProfileNMatchesProfileWindow pins the optimization contract:
// ProfileN's shared-event-tuple fast path must consume the noise
// stream exactly like n individual ProfileWindow calls, so learning
// results at a fixed seed are unchanged.
func TestProfileNMatchesProfileWindow(t *testing.T) {
	svc := services.NewCassandra()
	w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
	events := metrics.AllEvents()
	const n, window = 5, 2 * time.Minute

	fastProf, err := NewProfiler(svc, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := fastProf.ProfileN(w, events, n, window)
	if err != nil {
		t.Fatal(err)
	}

	refProf, err := NewProfiler(svc, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ref, err := refProf.ProfileWindow(w, events, window)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast[i].Values) != len(ref.Values) {
			t.Fatalf("trial %d: %d values vs %d", i, len(fast[i].Values), len(ref.Values))
		}
		for j := range ref.Values {
			if fast[i].Values[j] != ref.Values[j] {
				t.Fatalf("trial %d value %d: fast %v != reference %v", i, j, fast[i].Values[j], ref.Values[j])
			}
		}
		if !eventsEqual(fast[i].Events, ref.Events) {
			t.Fatalf("trial %d: event tuples diverged", i)
		}
	}

	// The shared tuple must be detached from profiler-owned storage
	// and common to all trials.
	if &fast[0].Events[0] != &fast[1].Events[0] {
		t.Error("trials should share one event tuple copy")
	}
	if &fast[0].Events[0] == &events[0] {
		t.Error("shared tuple should be detached from the caller's slice")
	}
}

// profileNReference replicates the pre-optimization ProfileN: one
// duplicate monitor construction per profiling round (re-resolving the
// full event catalog) plus a detached copy of the event tuple per
// trial — the costs the fast path eliminates.
func profileNReference(p *Profiler, w services.Workload, events []metrics.Event, n int, window time.Duration) ([]*Signature, error) {
	mon, err := metrics.NewMonitor(events, p.rng)
	if err != nil {
		return nil, err
	}
	mon.Bank = p.Monitor.Bank
	mon.BaseNoise = p.Monitor.BaseNoise
	src := services.ProfileSource{Service: p.Service, Workload: w, Instances: p.RefInstances}
	out := make([]*Signature, 0, n)
	for i := 0; i < n; i++ {
		sig := &Signature{
			Events: append([]metrics.Event(nil), events...),
			Values: make([]float64, len(events)),
		}
		if err := mon.SampleVector(&src, window, sig.Values); err != nil {
			return nil, err
		}
		out = append(out, sig)
	}
	return out, nil
}

// BenchmarkProfileN contrasts the learning phase's per-workload
// profiling round before and after the monitor-reuse optimization.
// Numbers feed docs/BENCHMARKS.md.
func BenchmarkProfileN(b *testing.B) {
	svc := services.NewCassandra()
	w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
	events := metrics.AllEvents()
	const n, window = 3, 5 * time.Minute

	b.Run("fast", func(b *testing.B) {
		prof, err := NewProfiler(svc, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prof.ProfileN(w, events, n, window); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		prof, err := NewProfiler(svc, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := profileNReference(prof, w, events, n, window); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProfileInto times one profiling round through the runtime
// path: tuple-1 samples a one-event signature (what every benchmark
// fleet template learns at seed 42), catalog the whole event universe
// (the learning phase's read). Both must report 0 allocs/op.
func BenchmarkProfileInto(b *testing.B) {
	svc := services.NewCassandra()
	w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
	for _, c := range []struct {
		name   string
		events []metrics.Event
	}{
		{"tuple-1", []metrics.Event{metrics.EvBusqEmpty}},
		{"catalog", metrics.AllEvents()},
	} {
		b.Run(c.name, func(b *testing.B) {
			prof, err := NewProfiler(svc, rand.New(rand.NewSource(3)))
			if err != nil {
				b.Fatal(err)
			}
			var sig Signature
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prof.ProfileInto(w, c.events, prof.Window, &sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
