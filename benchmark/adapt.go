package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/wire"
)

const (
	adaptTemplate = "adapt"
	adaptClasses  = 5
	adaptMaxK     = 12
	adaptBatch    = 64
)

// adaptEvents is the signature tuple of the adapt workload's template.
var adaptEvents = []metrics.Event{
	metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt, metrics.EvL2Ads,
	metrics.EvL2St, metrics.EvLoadBlock, metrics.EvXenCPU,
}

// clusteredSignatures is the benchmark's own signature generator: n
// rows over len(adaptEvents) events drawn around adaptClasses latent
// class centres with unit noise. The centres sit on a fixed 12-wide
// lattice and only the noise comes from the seed: the classes stay
// separated at any seed, the relearn's class count is a property of
// the data rather than of the draw, and the clustering does about the
// same work at every seed, so runs on different seeds compare.
func clusteredSignatures(seed int64, n int) [][]float64 {
	r := rng.New(seed)
	dims := len(adaptEvents)
	centres := make([][]float64, adaptClasses)
	for c := range centres {
		centres[c] = make([]float64, dims)
		for j := range centres[c] {
			centres[c][j] = 20 + 12*float64((c+j)%adaptClasses)
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		c := centres[i%adaptClasses]
		rows[i] = make([]float64, dims)
		for j := range rows[i] {
			rows[i][j] = c[j] + r.NormFloat64()
		}
	}
	return rows
}

// relearnAdapt is the learning step under test: cluster, label, train
// the classifier. Seeded, so every pass builds the same repository.
func relearnAdapt(seed int64, rows [][]float64, maxK int) (*core.Repository, error) {
	return core.RelearnFromSignatures(adaptEvents, rows, core.OnlineRelearnConfig{MaxK: maxK, Rng: rng.New(seed)})
}

// lookupThroughFront classifies rows through the front in batches and
// returns one decision per row plus the version that served the last
// batch.
func lookupThroughFront(src *client.TemplateSource, rows [][]float64) ([]wire.Decision, uint64, error) {
	out := make([]wire.Decision, 0, len(rows))
	var req wire.Request
	var resp wire.Response
	for from := 0; from < len(rows); from += adaptBatch {
		to := from + adaptBatch
		if to > len(rows) {
			to = len(rows)
		}
		req.Reset()
		for _, row := range rows[from:to] {
			req.AppendRow(row)
		}
		if err := src.LookupBatch(&req, &resp); err != nil {
			return nil, 0, err
		}
		if len(resp.Results) != to-from {
			return nil, 0, fmt.Errorf("%d decisions for %d rows", len(resp.Results), to-from)
		}
		out = append(out, resp.Results...)
	}
	return out, resp.Version, nil
}

// adaptDraw is the input of one adaptation: the signatures and the seed
// its clustering restarts from.
type adaptDraw struct {
	seed int64
	rows [][]float64
}

// adaptDraw draws one adaptation's input. How long a clustering takes
// depends on the draw (±10 % here), so every pass adapts to its own
// draw, derived from the seed and the pass number: a run's median is
// then taken over the population of draws, and runs on different seeds
// compare.
func (e *env) adaptDraw(n int) adaptDraw {
	seed := rng.Derive(e.seed, n)
	return adaptDraw{seed: seed, rows: clusteredSignatures(seed, e.size.AdaptSigs)}
}

func runAdapt(e *env) error {
	draw := 0
	err := e.runPasses("adapt", func(warm bool) (time.Duration, time.Duration, error) {
		d := e.adaptDraw(draw)
		draw++
		return e.adaptPass(d, warm)
	})
	if err != nil {
		return err
	}
	if e.spans != nil {
		return e.traceAdapt()
	}
	return nil
}

// adaptPass is one pass. Set-up: a live tier already serving the
// template from a stale repository (a tenth of the rows), so the timed
// install is a hot swap under publish-then-flip, as in production.
func (e *env) adaptPass(d adaptDraw, warm bool) (setup, window time.Duration, err error) {
	start := time.Now()
	t, err := startTier()
	if err != nil {
		return 0, 0, err
	}
	cl, err := t.frontClient(e.callers)
	if err != nil {
		_ = t.close() // already failing
		return 0, 0, err
	}
	teardown := func() error {
		cl.Close()
		return t.close()
	}
	stale, err := relearnAdapt(d.seed, d.rows[:len(d.rows)/10], 4)
	if err != nil {
		_ = teardown() // already failing
		return 0, 0, err
	}
	staleVersion, err := cl.Install(adaptTemplate, stale)
	if err != nil {
		_ = teardown() // already failing
		return 0, 0, err
	}
	setup = time.Since(start)

	window, err = e.adaptWindow(t, cl, staleVersion, d, warm)

	start = time.Now()
	if terr := teardown(); err == nil {
		err = terr
	}
	return setup + time.Since(start), window, err
}

// adaptWindow is the timed part of a pass and its checks.
func (e *env) adaptWindow(t *tier, cl *client.Client, staleVersion uint64, d adaptDraw, warm bool) (time.Duration, error) {
	rows := d.rows
	src, err := cl.Source(adaptTemplate, adaptEvents)
	if err != nil {
		return 0, err
	}

	// Timed: signatures in hand → the new version answering a lookup
	// through the front.
	start := time.Now()
	repo, err := relearnAdapt(d.seed, rows, adaptMaxK)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		return 0, err
	}
	installStart := time.Now()
	version, err := cl.InstallSerialized(adaptTemplate, buf.Bytes(), 0)
	if err != nil {
		return 0, err
	}
	install := time.Since(installStart)
	first, served, err := lookupThroughFront(src, rows[:1])
	if err != nil {
		return 0, err
	}
	window := time.Since(start)

	e.attempted += 2 // the adaptation and its first lookup
	want, err := repo.Lookup(&core.Signature{Events: adaptEvents, Values: rows[0]}, 0)
	if err != nil {
		return 0, err
	}
	if err := e.check(served == version && version > staleVersion && first[0] == lookupToDecision(want),
		"(e) the first lookup after install is answered by the new version, as the repository answers locally"); err != nil {
		return 0, err
	}
	if k, ok := e.expect.adaptK(len(rows)); ok {
		if err := e.check(repo.Classes() == k, "(e) seed %d, %d signatures: relearn chose %d classes, recorded %d",
			e.seed, len(rows), repo.Classes(), k); err != nil {
			return 0, err
		}
	}
	for i, d := range t.members {
		st, err := d.srv.StatsFor(adaptTemplate)
		if err != nil {
			return 0, err
		}
		if err := e.check(st.Version == version, "(e) replica %d reports the new version", i); err != nil {
			return 0, fmt.Errorf("%w (replica has %d, installed %d)", err, st.Version, version)
		}
	}
	if warm {
		// Every training row must classify through the front as it does
		// against the repository in this process.
		got, _, err := lookupThroughFront(src, rows)
		if err != nil {
			return 0, err
		}
		e.attempted += int64(len(rows)+adaptBatch-1) / adaptBatch
		sig := core.Signature{Events: adaptEvents}
		for i, row := range rows {
			sig.Values = row
			want, err := repo.Lookup(&sig, 0)
			if err != nil {
				return 0, err
			}
			if got[i] != lookupToDecision(want) {
				return 0, fmt.Errorf("check failed: (e) training row %d decides %+v through the front, %+v locally", i, got[i], lookupToDecision(want))
			}
		}
		e.passed("(e) all training rows classify through the front as they do locally")
		return window, nil
	}
	e.rec.add("ops_per_s", 1/window.Seconds())
	e.rec.add("adapt.adapt_s", window.Seconds())
	e.rec.add("replica.install_ms", install.Seconds()*1e3)
	e.rec.add("replica.failovers", float64(t.reg.Failovers()))
	return window, nil
}

// traceAdapt times adapt's stages in isolation, on the first draws the
// passes adapted to.
func (e *env) traceAdapt() error {
	const draws = 5
	for i := 0; i < draws; i++ {
		d := e.adaptDraw(i)
		rows := d.rows
		// The clustering alone, on the rows as the relearn standardizes
		// them.
		names := make([]string, len(adaptEvents))
		for j, ev := range adaptEvents {
			names[j] = string(ev)
		}
		ds := ml.NewDataset(names)
		for _, row := range rows {
			if err := ds.Add(row, 0); err != nil {
				return err
			}
		}
		std, err := ml.FitStandardizer(ds)
		if err != nil {
			return err
		}
		z := std.TransformDataset(ds)
		start := time.Now()
		km, err := ml.KMeansAuto(z.X, 2, adaptMaxK, ml.KMeansConfig{Rng: rng.New(d.seed)})
		if err != nil {
			return err
		}
		kmeans := time.Since(start)
		e.spans.record(spanKMeans, start, start.Add(kmeans))

		start = time.Now()
		repo, err := relearnAdapt(d.seed, rows, adaptMaxK)
		if err != nil {
			return err
		}
		relearn := time.Since(start)
		e.spans.record(spanRelearn, start, start.Add(relearn))
		if err := e.check(km.K == repo.Classes(), "the isolated clustering chooses the relearn's class count (%d)", km.K); err != nil {
			return err
		}

		var buf bytes.Buffer
		start = time.Now()
		if err := core.SaveRepository(repo, &buf); err != nil {
			return err
		}
		save := time.Since(start)
		start = time.Now()
		if _, err := core.LoadRepository(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		load := time.Since(start)

		e.rec.add("ml.kmeans_auto_ms", kmeans.Seconds()*1e3)
		e.rec.add("ml.chosen_k", float64(km.K))
		e.rec.add("core.relearn_self_ms", (relearn-kmeans).Seconds()*1e3)
		e.rec.add("core.save_us", save.Seconds()*1e6)
		e.rec.add("core.load_us", load.Seconds()*1e6)
	}
	return nil
}
