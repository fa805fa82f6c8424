package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/wire"
)

// The serve_batch16 load shape: the same wire/server/core lookup path
// fleet_remote uses batch-1 and synchronous, driven the other way.
const (
	serveBatch    = 16
	servePipeline = 8
	servePayloads = 64
	serveSegments = 10 // a pass's requests go out in this many segments, each on fresh connections
	serveMaxReply = 8 << 20
	serveSetups   = 32 // set-ups sampled per run, at least
)

// serveRig is one pass's system under load: a learned Cassandra
// repository behind a live dejavud, the pre-encoded request payloads,
// what the repository itself answers for each, and the callers' raw
// stream connections.
type serveRig struct {
	daemon   *daemon
	payloads [][]byte
	want     [][]wire.Decision
	conns    []net.Conn
	streams  []*wire.Stream
}

// learnServeRepo learns the benchmark's own serving repository and
// profiles its own foreseen signature set from the seed: loads drawn
// across the learned range, kept when the repository recognises them
// (serving is the steady-state hit path; misses belong to the fleets).
func learnServeRepo(seed int64, count int) (*core.Handle, [][]float64, error) {
	svc := services.NewCassandra()
	r := rng.New(seed)
	prof, err := core.NewProfiler(svc, r)
	if err != nil {
		return nil, nil, err
	}
	tuner, err := fleet.DefaultTuner(svc)
	if err != nil {
		return nil, nil, err
	}
	const loLoad, hiLoad = 100.0, 460.0
	var learn []services.Workload
	for c := loLoad; c <= hiLoad; c += 30 {
		learn = append(learn, services.Workload{Clients: c, Mix: svc.DefaultMix()})
	}
	repo, _, err := core.Learn(core.LearnConfig{Profiler: prof, Tuner: tuner, Workloads: learn, Rng: r})
	if err != nil {
		return nil, nil, err
	}
	handle, err := core.NewHandle(repo)
	if err != nil {
		return nil, nil, err
	}
	sigs := make([][]float64, 0, count)
	for tries := 0; len(sigs) < count; tries++ {
		if tries > 50*count {
			return nil, nil, fmt.Errorf("serve: only %d of %d profiled signatures were foreseen", len(sigs), count)
		}
		w := services.Workload{Clients: loLoad + (hiLoad-loLoad)*r.Float64(), Mix: svc.DefaultMix()}
		sig, err := prof.Profile(w, repo.EventsRef())
		if err != nil {
			return nil, nil, err
		}
		res, err := handle.Lookup(sig, 0)
		if err != nil {
			return nil, nil, err
		}
		if res.Hit {
			sigs = append(sigs, sig.Values)
		}
	}
	return handle, sigs, nil
}

// lookupToDecision is the wire row a repository answer must arrive as.
func lookupToDecision(res core.LookupResult) wire.Decision {
	d := wire.Decision{Class: res.Class, Certainty: res.Certainty, Unforeseen: res.Unforeseen, Hit: res.Hit}
	if res.Hit {
		d.Type = res.Allocation.Type.ID()
		d.Count = res.Allocation.Count
	}
	return d
}

// dialStream opens one raw stream connection to a TCP decision plane.
func dialStream(addr string) (net.Conn, *wire.Stream, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort; the kernel default only costs latency
	}
	st := wire.NewStream(nc)
	if err := st.WriteClientHello(wire.EncodingBinary); err != nil {
		nc.Close()
		return nil, nil, err
	}
	if _, err := st.ReadServerHello(); err != nil {
		nc.Close()
		return nil, nil, err
	}
	return nc, st, nil
}

func standUpServe(seed int64, callers int) (*serveRig, error) {
	handle, sigs, err := learnServeRepo(seed, servePayloads*serveBatch)
	if err != nil {
		return nil, err
	}
	r := &serveRig{}
	events := handle.Events()
	var req wire.Request
	for p := 0; p < servePayloads; p++ {
		req.Reset()
		want := make([]wire.Decision, serveBatch)
		for i := 0; i < serveBatch; i++ {
			vals := sigs[p*serveBatch+i]
			req.AppendRow(vals)
			res, err := handle.Lookup(&core.Signature{Events: events, Values: vals}, 0)
			if err != nil {
				return nil, err
			}
			want[i] = lookupToDecision(res)
		}
		payload, err := req.AppendBinary(nil)
		if err != nil {
			return nil, err
		}
		r.payloads = append(r.payloads, payload)
		r.want = append(r.want, want)
	}
	if r.daemon, err = startDaemon(server.Config{Handle: handle}); err != nil {
		return nil, err
	}
	if err := r.dial(callers); err != nil {
		_ = r.close() // already failing
		return nil, err
	}
	return r, nil
}

// dial replaces the rig's connections with fresh ones.
func (r *serveRig) dial(callers int) error {
	for _, nc := range r.conns {
		nc.Close()
	}
	r.conns, r.streams = r.conns[:0], r.streams[:0]
	for i := 0; i < callers; i++ {
		nc, st, err := dialStream(r.daemon.tcpAddr)
		if err != nil {
			return err
		}
		r.conns = append(r.conns, nc)
		r.streams = append(r.streams, st)
	}
	return nil
}

func (r *serveRig) close() error {
	for _, nc := range r.conns {
		nc.Close()
	}
	if r.daemon != nil {
		return r.daemon.close()
	}
	return nil
}

// drive issues `requests` batched lookups over the rig's connections,
// each keeping servePipeline envelopes in flight, and returns the wall
// time, every request's latency (envelope write → decoded response),
// and how many decisions were not hits. verify additionally compares
// every decision with the repository's own answer (check d).
func (r *serveRig) drive(requests int, verify bool, lat [][]int64) (time.Duration, int64, error) {
	errs := make([]error, len(r.streams))
	notHit := make([]int64, len(r.streams))
	deadline := time.Now().Add(2 * time.Minute)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range r.streams {
		n := requests / len(r.streams)
		if w < requests%len(r.streams) {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			errs[w] = func() error {
				st := r.streams[w]
				if err := r.conns[w].SetDeadline(deadline); err != nil {
					return err
				}
				var resp wire.Response
				var sendTimes [servePipeline]time.Time
				sent := 0
				for done := 0; done < n; done++ {
					for sent-done < servePipeline && sent < n {
						sendTimes[sent%servePipeline] = time.Now()
						// Offset the payload cycle per connection so the
						// callers are not in lockstep on one signature.
						if err := st.WriteEnvelope(uint32(sent), wire.StreamFlagLookup, r.payloads[(sent+w*7)%servePayloads]); err != nil {
							return err
						}
						sent++
					}
					id, flags, body, err := st.ReadEnvelope(serveMaxReply)
					if err != nil {
						return err
					}
					if id != uint32(done) {
						return fmt.Errorf("response id %d, want %d", id, done)
					}
					if flags&wire.StreamFlagError != 0 {
						return fmt.Errorf("daemon error envelope: %s", body)
					}
					if err := resp.Decode(wire.EncodingBinary, body); err != nil {
						return err
					}
					lat[w] = append(lat[w], int64(time.Since(sendTimes[done%servePipeline])))
					if len(resp.Results) != serveBatch {
						return fmt.Errorf("%d decisions in a batch of %d", len(resp.Results), serveBatch)
					}
					want := r.want[(done+w*7)%servePayloads]
					for i := range resp.Results {
						if !resp.Results[i].Hit {
							notHit[w]++
						}
						if verify && resp.Results[i] != want[i] {
							return fmt.Errorf("decision %+v differs from Handle.Lookup's %+v", resp.Results[i], want[i])
						}
					}
				}
				return nil
			}()
		}(w, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var misses int64
	for _, n := range notHit {
		misses += n
	}
	return elapsed, misses, errors.Join(errs...)
}

// quantileUs reads a quantile off sorted nanosecond samples, in µs.
func quantileUs(sorted []int64, q float64) float64 {
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

// driveSegments drives one pass's requests in segments, each after the
// first on fresh connections: where the scheduler happens to put a
// connection's two ends swings its throughput by ±10 % for as long as it
// lives, so a pass averages over placements instead of sampling one. It
// returns the requests issued, the summed drive time, and the time spent
// re-dialing, which is set-up, not window.
func (r *serveRig) driveSegments(requests, segments, callers int, verify bool, lat [][]int64) (issued int, elapsed, redial time.Duration, misses int64, err error) {
	for w := range lat {
		lat[w] = lat[w][:0]
	}
	for seg := 0; seg < segments; seg++ {
		if seg > 0 {
			start := time.Now()
			if err := r.dial(callers); err != nil {
				return 0, 0, 0, 0, err
			}
			redial += time.Since(start)
		}
		el, m, err := r.drive(requests/segments, verify, lat)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		issued += requests / segments
		elapsed += el
		misses += m
	}
	return issued, elapsed, redial, misses, nil
}

// setUpServe is the set-up of one pass and nothing else: stand up, dial
// as often as a pass does, tear down.
func setUpServe(seed int64, callers int) (time.Duration, error) {
	start := time.Now()
	rig, err := standUpServe(seed, callers)
	if err != nil {
		return 0, err
	}
	for seg := 1; seg < serveSegments && err == nil; seg++ {
		err = rig.dial(callers)
	}
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	return time.Since(start), err
}

func runServe(e *env) error {
	requests := e.size.ServeRequests
	lat := make([][]int64, e.callers)
	for i := range lat {
		lat[i] = make([]int64, 0, requests/e.callers+1)
	}
	all := make([]int64, 0, requests)
	err := e.runPasses("serve_batch16", func(warm bool) (time.Duration, time.Duration, error) {
		start := time.Now()
		rig, err := standUpServe(e.seed, e.callers)
		if err != nil {
			return 0, 0, err
		}
		setup := time.Since(start)
		// The warm-up pass is a tenth of the size, in one segment, and
		// verifies every decision; timed passes only count hits.
		n, segments := requests, serveSegments
		if warm {
			n, segments = requests/10+1, 1
		}
		n, elapsed, redial, misses, err := rig.driveSegments(n, segments, e.callers, warm, lat)
		if err != nil {
			_ = rig.close() // the drive error is the one to report
			return 0, 0, err
		}
		st := rig.daemon.srv.StatsSnapshot()
		refused := rig.daemon.tcp.Stats().Refused
		start = time.Now()
		if err := rig.close(); err != nil {
			return 0, 0, err
		}
		setup += redial + time.Since(start)
		e.attempted += int64(n)
		e.failed += st.BadRequests + refused
		if err := e.check(misses == 0, "(d) serve_batch16 hit rate 100%% (%d decisions not hits)", misses); err != nil {
			return 0, 0, err
		}
		if warm {
			e.passed("(d) every warm-up decision equals Handle.Lookup on the same signature")
			return setup, elapsed, nil
		}
		all = all[:0]
		for _, l := range lat {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		dps := float64(n*serveBatch) / elapsed.Seconds()
		e.rec.add("ops_per_s", dps)
		e.rec.add("serve.decisions_per_s", dps)
		e.rec.add("serve.request_p50_us", quantileUs(all, 0.50))
		e.rec.add("server.request_p99_us", quantileUs(all, 0.99))
		e.rec.add("server.lookup_requests", float64(st.LookupReqs))
		e.rec.add("server.bad_requests", float64(st.BadRequests))
		e.rec.add("server.tcp_refused", float64(refused))
		return setup, elapsed, nil
	})
	if err != nil {
		return err
	}
	// A pass takes seconds here, so a run has few of them; standing the
	// system up takes milliseconds. Set up some more times, exactly as a
	// pass does, so setup_s is a median of something.
	for n := len(e.rec.samples["setup_s"]); n < serveSetups; n++ {
		setup, err := setUpServe(e.seed, e.callers)
		if err != nil {
			return err
		}
		e.rec.add("setup_s", setup.Seconds())
	}
	if e.spans != nil {
		return e.traceServe()
	}
	return nil
}
