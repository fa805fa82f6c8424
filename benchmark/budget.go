package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/wire"
)

// The traced run's second part: the signatures the fleet's lookup
// wrapper captured are replayed, single goroutine, through each stage
// of a decision in isolation. Every stage reports a median; the derived
// self times subtract one stage's median from the one that contains it.

// chunkNs times fn(i) for i in [0, n) in chunks and returns the median
// per-call nanoseconds over the chunks: the stages here cost tens to
// hundreds of ns, less than reading the clock twice.
func chunkNs(n int, fn func(i int) error) (float64, error) {
	const chunk = 200
	runtime.GC() // a mark phase overlapping a stage would tax its pointer stores
	var per []float64
	for from := 0; from < n; from += chunk {
		to := from + chunk
		if to > n {
			to = n
		}
		start := time.Now()
		for i := from; i < to; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start))/float64(to-from))
	}
	return median(per), nil
}

// interleavedUs times round trips: it runs each op over the same
// indices in alternating blocks, timing every call on its own (the
// clock is noise at this scale), and returns one median per op in µs.
// Within a block an op keeps its connection hot, as a fleet's lone
// caller does; alternating the blocks makes the ops share whatever
// state the machine drifts through — loopback round trips are bimodal
// in where the scheduler puts the two ends — so the differences between
// their medians, which the self times are, mean something.
func interleavedUs(n int, ops ...func(i int) error) ([]float64, error) {
	const block = 250
	per := make([][]float64, len(ops))
	for k := range per {
		per[k] = make([]float64, 0, n)
	}
	runtime.GC()
	for from := 0; from < n; from += block {
		to := from + block
		if to > n {
			to = n
		}
		for k, op := range ops {
			for i := from; i < to; i++ {
				start := time.Now()
				if err := op(i); err != nil {
					return nil, err
				}
				per[k] = append(per[k], float64(time.Since(start))/1e3)
			}
		}
	}
	medians := make([]float64, len(ops))
	for k := range per {
		medians[k] = median(per[k])
	}
	return medians, nil
}

// replay is the replay's input and the artefacts stages hand on.
type replay struct {
	e       *env
	handles map[string]*core.Handle
	sigs    []capturedSig

	reqPayloads  [][]byte        // one batch-1 request frame per signature
	decisions    []wire.Decision // what the repository answers for each
	respPayloads [][]byte        // one batch-1 response frame per signature
	batches      [][]int         // same-template runs of serveBatch signatures
	batchReq     [][]byte
	batchResp    [][]byte
}

func (r *replay) set(name string, v float64, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.e.rec.set(name, v)
	return nil
}

func (r *replay) fillRequest(req *wire.Request, i int) {
	s := &r.sigs[i]
	req.Reset()
	req.SetTemplate(s.template)
	req.Bucket = s.bucket
	req.AppendRow(s.values)
}

// stageCalls is the least number of calls a replay stage is timed
// over: serve_batch16 brings 1024 signatures in 64 batches, and a
// median wants more chunks than that makes, so short inputs are cycled.
const stageCalls = 8000

func atLeastStageCalls(n int) int {
	if n < stageCalls {
		return stageCalls
	}
	return n
}

// coreStages times classify+lookup against the in-process handles.
func (r *replay) coreStages() error {
	r.decisions = make([]wire.Decision, len(r.sigs))
	var sig core.Signature
	ns, err := chunkNs(atLeastStageCalls(len(r.sigs)), func(i int) error {
		i %= len(r.sigs)
		s := &r.sigs[i]
		h := r.handles[s.template]
		sig.Events, sig.Values = h.Events(), s.values
		res, err := h.Lookup(&sig, s.bucket)
		r.decisions[i] = lookupToDecision(res)
		return err
	})
	return r.set("core.lookup_ns", ns, err)
}

// codecStages times the four batch-1 codec steps.
func (r *replay) codecStages() error {
	n := len(r.sigs)
	r.reqPayloads = make([][]byte, n)
	r.respPayloads = make([][]byte, n)
	var req wire.Request
	var buf []byte
	ns, err := chunkNs(n, func(i int) error {
		r.fillRequest(&req, i)
		var err error
		buf, err = req.AppendBinary(buf[:0])
		return err
	})
	if err := r.set("wire.req_encode_ns", ns, err); err != nil {
		return err
	}
	var resp wire.Response
	for i := range r.sigs {
		r.fillRequest(&req, i)
		if r.reqPayloads[i], err = req.AppendBinary(nil); err != nil {
			return err
		}
		resp.Reset()
		resp.Version, resp.Lookup = 1, true
		resp.Results = append(resp.Results, r.decisions[i])
		r.respPayloads[i] = resp.AppendBinary(nil)
	}
	ns, err = chunkNs(n, func(i int) error { return req.DecodeBinary(r.reqPayloads[i]) })
	if err := r.set("wire.req_decode_ns", ns, err); err != nil {
		return err
	}
	ns, err = chunkNs(n, func(i int) error {
		resp.Reset()
		resp.Version, resp.Lookup = 1, true
		resp.Results = append(resp.Results, r.decisions[i])
		buf = resp.AppendBinary(buf[:0])
		return nil
	})
	if err := r.set("wire.resp_encode_ns", ns, err); err != nil {
		return err
	}
	ns, err = chunkNs(n, func(i int) error { return resp.DecodeBinary(r.respPayloads[i]) })
	return r.set("wire.resp_decode_ns", ns, err)
}

// batchStages times the server-side codec steps in the batched shape:
// decode a 16-row request, encode its 16-decision response.
func (r *replay) batchStages() error {
	byTemplate := map[string][]int{}
	var order []string
	for i, s := range r.sigs {
		if _, ok := byTemplate[s.template]; !ok {
			order = append(order, s.template)
		}
		byTemplate[s.template] = append(byTemplate[s.template], i)
	}
	var req wire.Request
	var resp wire.Response
	for _, name := range order {
		idx := byTemplate[name]
		for from := 0; from+serveBatch <= len(idx); from += serveBatch {
			batch := idx[from : from+serveBatch]
			req.Reset()
			req.SetTemplate(name)
			resp.Reset()
			resp.Version, resp.Lookup = 1, true
			for _, i := range batch {
				req.AppendRow(r.sigs[i].values)
				resp.Results = append(resp.Results, r.decisions[i])
			}
			payload, err := req.AppendBinary(nil)
			if err != nil {
				return err
			}
			r.batches = append(r.batches, batch)
			r.batchReq = append(r.batchReq, payload)
			r.batchResp = append(r.batchResp, resp.AppendBinary(nil))
		}
	}
	if len(r.batches) == 0 {
		return errors.New("too few signatures for one batch")
	}
	n := atLeastStageCalls(len(r.batches))
	ns, err := chunkNs(n, func(b int) error { return req.DecodeBinary(r.batchReq[b%len(r.batchReq)]) })
	if err := r.set("wire.req_decode_b16_ns", ns, err); err != nil {
		return err
	}
	var buf []byte
	ns, err = chunkNs(n, func(b int) error {
		resp.Reset()
		resp.Version, resp.Lookup = 1, true
		for _, i := range r.batches[b%len(r.batches)] {
			resp.Results = append(resp.Results, r.decisions[i])
		}
		buf = resp.AppendBinary(buf[:0])
		return nil
	})
	return r.set("wire.resp_encode_b16_ns", ns, err)
}

// histStage times one latency-histogram record: what every decide pays
// for being observable.
func (r *replay) histStage() error {
	var h obs.Histogram
	ns, err := chunkNs(atLeastStageCalls(len(r.sigs)), func(i int) error {
		h.Record(time.Duration(i) * time.Microsecond)
		return nil
	})
	return r.set("obs.hist_record_ns", ns, err)
}

// engineStages times what a fleet VM does outside the decision plane:
// collect a signature, evaluate the service model, solve the queueing
// network through its memo.
func (r *replay) engineStages(groups []*vmGroup) error {
	var profNs, perfNs []float64
	for _, g := range groups {
		prof, err := core.NewProfiler(g.svc, rng.New(r.e.seed))
		if err != nil {
			return err
		}
		events := g.repo.EventsRef()
		var sig core.Signature
		ns, err := chunkNs(len(r.sigs)/len(groups), func(i int) error {
			return prof.ProfileInto(g.learn[i%len(g.learn)], events, prof.Window, &sig)
		})
		if err != nil {
			return fmt.Errorf("core.profile_ns: %w", err)
		}
		profNs = append(profNs, ns)

		// The simulator holds a load for a whole trace sample (60
		// steps), so the memo's steady state is the same-cell hit.
		memo := services.NewPerfMemo(g.svc)
		capacity := g.svc.MaxAllocation().Capacity()
		ns, _ = chunkNs(len(r.sigs)/len(groups), func(i int) error {
			_ = memo.Perf(&g.learn[(i/60)%len(g.learn)], capacity)
			return nil
		})
		perfNs = append(perfNs, ns)
	}
	r.e.rec.set("core.profile_ns", median(profNs))
	r.e.rec.set("services.perf_ns", median(perfNs))

	nw := &queueing.Network{Demands: []float64{0.010, 0.025, 0.008}, ThinkTime: 1.5}
	solver := queueing.NewMemoSolver()
	ns, err := chunkNs(len(r.sigs), func(i int) error {
		_, err := solver.Solve(nw, 100+(i/60)%400)
		return err
	})
	return r.set("queueing.mva_memo_ns", ns, err)
}

// echoPeer is the benchmark's own stream peer: it answers every
// envelope with the same envelope, cut to a response's size. A round
// trip against it is the
// floor any stream decision pays — framing, two syscalls each way, and
// the wake-up of the goroutine on the other side.
type echoPeer struct {
	ln net.Listener
	// replyLen cuts the reflected payload to a response's size, so the
	// floor moves the bytes a decision moves.
	replyLen int
	done     chan error
}

func startEchoPeer(replyLen int) (*echoPeer, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	p := &echoPeer{ln: ln, replyLen: replyLen, done: make(chan error, 1)}
	go func() { p.done <- p.serve() }()
	return p, nil
}

func (p *echoPeer) serve() error {
	nc, err := p.ln.Accept()
	if err != nil {
		return err
	}
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort, as the daemon does
	}
	st := wire.NewStream(nc)
	enc, err := st.ReadClientHello()
	if err != nil {
		return err
	}
	if err := st.WriteServerHello(enc); err != nil {
		return err
	}
	for {
		id, flags, payload, err := st.ReadEnvelope(serveMaxReply)
		if err != nil {
			return nil // the dialer hung up: the replay is over
		}
		if len(payload) > p.replyLen {
			payload = payload[:p.replyLen]
		}
		if err := st.WriteEnvelope(id, flags, payload); err != nil {
			return err
		}
	}
}

func (p *echoPeer) close() error {
	err := p.ln.Close()
	if serr := <-p.done; err == nil {
		err = serr
	}
	return err
}

// streamRT returns an op doing one synchronous envelope round trip of
// payloads[i] against a stream peer, and the connection to close. The
// echo peer reflects the request's lookup flag, which shares its bit
// with a reply's error flag, so only a daemon's replies are checked
// for it.
func streamRT(addr string, payloads [][]byte, echo bool) (func(i int) error, net.Conn, error) {
	nc, st, err := dialStream(addr)
	if err != nil {
		return nil, nil, err
	}
	return func(i int) error {
		if err := st.WriteEnvelope(uint32(i), wire.StreamFlagLookup, payloads[i%len(payloads)]); err != nil {
			return err
		}
		id, flags, body, err := st.ReadEnvelope(serveMaxReply)
		if err != nil {
			return err
		}
		if id != uint32(i) {
			return fmt.Errorf("response id %d, want %d", id, i)
		}
		if !echo && flags&wire.StreamFlagError != 0 {
			return fmt.Errorf("error envelope: %s", body)
		}
		return nil
	}, nc, nil
}

// lookupRT returns an op doing one synchronous single-signature lookup
// through a client's template sources, checked against the in-process
// answer.
func (r *replay) lookupRT(cl *client.Client) (func(i int) error, error) {
	sources := map[string]*client.TemplateSource{}
	for name, h := range r.handles {
		src, err := cl.Source(name, h.Events())
		if err != nil {
			return nil, err
		}
		sources[name] = src
	}
	var sig core.Signature
	return func(i int) error {
		s := &r.sigs[i]
		src := sources[s.template]
		sig.Events, sig.Values = src.Events(), s.values
		res, err := src.Lookup(&sig, s.bucket)
		if err == nil && lookupToDecision(res) != r.decisions[i] {
			err = fmt.Errorf("signature %d decides %+v remotely, %+v in process", i, lookupToDecision(res), r.decisions[i])
		}
		return err
	}, nil
}

// streamStages times n synchronous round trips of the payloads against
// the echo peer and against a live dejavud's TCP plane, interleaved with
// any further ops, whose medians it returns.
func (r *replay) streamStages(d *daemon, n int, payloads [][]byte, replyLen int, more ...func(i int) error) ([]float64, error) {
	echo, err := startEchoPeer(replyLen)
	if err != nil {
		return nil, err
	}
	defer echo.close() // after the connection below: the peer serves until its dialer hangs up
	echoRT, echoConn, err := streamRT(echo.ln.Addr().String(), payloads, true)
	if err != nil {
		return nil, err
	}
	defer echoConn.Close()
	tcpRT, tcpConn, err := streamRT(d.tcpAddr, payloads, false)
	if err != nil {
		return nil, err
	}
	defer tcpConn.Close()
	us, err := interleavedUs(n, append([]func(int) error{echoRT, tcpRT}, more...)...)
	if err != nil {
		return nil, err
	}
	r.e.rec.set("wire.stream_echo_rtt_us", us[0])
	r.e.rec.set("server.tcp_rtt_us", us[1])
	return us[2:], nil
}

// wireStages times the round trips of one batch-1 decision: the echo
// floor, the daemon's raw TCP plane, and the client library over each
// plane.
func (r *replay) wireStages() error {
	d, err := startDaemon(server.Config{Templates: r.handles})
	if err != nil {
		return err
	}
	defer d.close()
	// The HTTP plane is timed through the client library's HTTP
	// transport: hand-rolling HTTP/1.1 here would measure this file.
	httpClient, err := client.New(client.Config{Addr: d.http.addr})
	if err != nil {
		return err
	}
	defer httpClient.Close()
	tcpClient, err := client.New(client.Config{Addr: d.http.addr, TCPAddr: d.tcpAddr})
	if err != nil {
		return err
	}
	defer tcpClient.Close()
	httpRT, err := r.lookupRT(httpClient)
	if err != nil {
		return err
	}
	clientRT, err := r.lookupRT(tcpClient)
	if err != nil {
		return err
	}
	us, err := r.streamStages(d, len(r.sigs), r.reqPayloads, len(r.respPayloads[0]), httpRT, clientRT)
	if err != nil {
		return err
	}
	r.e.rec.set("server.http_rtt_us", us[0])
	r.e.rec.set("client.decide_us", us[1])

	m := r.e.rec.median
	ns := func(name string) float64 { return m(name) / 1e3 }
	r.e.rec.set("server.self_us", m("server.tcp_rtt_us")-m("wire.stream_echo_rtt_us")-
		ns("wire.req_decode_ns")-ns("core.lookup_ns")-ns("wire.resp_encode_ns"))
	r.e.rec.set("client.self_us", m("client.decide_us")-m("server.tcp_rtt_us")-
		ns("wire.req_encode_ns")-ns("wire.resp_decode_ns"))
	return nil
}

// remoteLayerSumUs adds up the layer medians of one remote decision.
func (r *replay) remoteLayerSumUs() float64 {
	m := r.e.rec.median
	ns := func(name string) float64 { return m(name) / 1e3 }
	return ns("wire.req_encode_ns") + m("client.self_us") + m("wire.stream_echo_rtt_us") +
		ns("wire.req_decode_ns") + ns("core.lookup_ns") + ns("wire.resp_encode_ns") +
		m("server.self_us") + ns("wire.resp_decode_ns")
}

// tierStages times a decision through the registry in process and
// through the front, against a live three-replica tier.
func (r *replay) tierStages() error {
	t, err := startTier()
	if err != nil {
		return err
	}
	defer t.close()
	for name, h := range r.handles {
		if _, err := t.reg.Install(name, h.Current().Repo); err != nil {
			return err
		}
	}
	cl, err := t.frontClient(1)
	if err != nil {
		return err
	}
	defer cl.Close()
	frontRT, err := r.lookupRT(cl)
	if err != nil {
		return err
	}
	var req wire.Request
	var resp wire.Response
	us, err := interleavedUs(len(r.sigs), func(i int) error {
		r.fillRequest(&req, i)
		return t.reg.Decide(true, &req, &resp)
	}, frontRT)
	if err != nil {
		return err
	}
	r.e.rec.set("replica.decide_us", us[0])
	r.e.rec.set("proxy.front_decide_us", us[1])
	m := r.e.rec.median
	r.e.rec.set("replica.self_us", m("replica.decide_us")-m("server.tcp_rtt_us"))
	r.e.rec.set("proxy.self_us", m("proxy.front_decide_us")-m("replica.decide_us")-
		(m("server.http_rtt_us")-m("server.tcp_rtt_us")))
	return nil
}

// checkResidual closes a budget: the layer medians must add up to the
// end-to-end median within the size's residual bound.
func (e *env) checkResidual(name string, e2eUs, layersUs float64) error {
	frac := (e2eUs - layersUs) / e2eUs
	bound := e.size.ResidualBound
	e.rec.set(name, frac)
	return e.check(frac >= -bound && frac <= bound,
		"%s = %.3f within ±%.2f (end-to-end solo p50 %.2f µs, layer medians sum to %.2f µs)", name, frac, bound, e2eUs, layersUs)
}

// replayBudget runs the stages on a fleet workload's path and closes
// the budget against the lookup p50 its traced drive measured.
func (e *env) replayBudget(shape string, groups []*vmGroup, captured []capturedSig, e2eLookupNs float64) error {
	r := &replay{e: e, handles: map[string]*core.Handle{}, sigs: captured}
	for _, g := range groups {
		h, err := core.NewHandle(g.repo)
		if err != nil {
			return err
		}
		r.handles[g.name] = h
	}
	if err := r.coreStages(); err != nil {
		return err
	}
	if err := r.engineStages(groups); err != nil {
		return err
	}
	if shape == shapeLocal {
		return nil
	}
	for _, stage := range []func() error{r.codecStages, r.batchStages, r.histStage, r.wireStages} {
		if err := stage(); err != nil {
			return err
		}
	}
	if shape == shapeRemote {
		return e.checkResidual("budget.remote_residual_frac", e2eLookupNs/1e3, r.remoteLayerSumUs())
	}
	if err := r.tierStages(); err != nil {
		return err
	}
	m := e.rec.median
	tierSum := r.remoteLayerSumUs() + m("replica.self_us") + m("proxy.self_us") + (m("server.http_rtt_us") - m("server.tcp_rtt_us"))
	return e.checkResidual("budget.tier_residual_frac", e2eLookupNs/1e3, tierSum)
}

// traceServe prices serve_batch16's path: the batched codec steps,
// classify+lookup, the histogram record, and the server's self time
// on a synchronous batch-16 round trip.
func (e *env) traceServe() error {
	handle, sigs, err := learnServeRepo(e.seed, servePayloads*serveBatch)
	if err != nil {
		return err
	}
	r := &replay{e: e, handles: map[string]*core.Handle{server.DefaultTemplate: handle}}
	for _, vals := range sigs {
		r.sigs = append(r.sigs, capturedSig{template: server.DefaultTemplate, values: vals})
	}
	for _, stage := range []func() error{r.coreStages, r.batchStages, r.histStage} {
		if err := stage(); err != nil {
			return err
		}
	}
	d, err := startDaemon(server.Config{Templates: r.handles})
	if err != nil {
		return err
	}
	_, err = r.streamStages(d, stageCalls, r.batchReq, len(r.batchResp[0]))
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m := e.rec.median
	e.rec.set("server.self_us", m("server.tcp_rtt_us")-m("wire.stream_echo_rtt_us")-
		(m("wire.req_decode_b16_ns")+serveBatch*m("core.lookup_ns")+m("wire.resp_encode_b16_ns"))/1e3)
	return nil
}
