// Command dejavu-proxy runs DejaVu's duplicating proxy in one of two
// modes.
//
// Byte-stream mode (default) is the paper's §3.2.1 transport-level
// proxy: it forwards client connections to the production address and
// mirrors a sampled subset of sessions to a profiling clone, whose
// replies are dropped.
//
// Decision mode (-decision) lifts the same pattern to the decision
// plane on the unified protocol stack: it accepts wire-protocol
// decision requests (binary batch frames), forwards them to an
// upstream dejavud through the internal/client library, and
// optionally mirrors sampled batches to a clone daemon — fronting a
// dejavud replica without touching clients.
//
// Usage:
//
//	dejavu-proxy -listen :8080 -production host:port [-clone host:port] [-sample N]
//	dejavu-proxy -decision -listen :8080 -upstream host:port [-clone host:port] [-sample N]
//	            [-upstream-tcp host:port] [-clone-tcp host:port]
//
// In decision mode, -upstream-tcp (and -clone-tcp for the mirror)
// moves that hop onto dejavud's raw-TCP decision plane; the matching
// HTTP address may be omitted because the proxy's forwarding path is
// decisions-only. A tcp:// prefix on -upstream or -clone does the
// same thing.
//
// Replicated mode (-decision -replicas a,b,c) fronts a replicated
// dejavud tier instead of a single upstream: health-checked
// round-robin with automatic failover, installs published to every
// replica with the registry's publish-then-flip version consistency,
// puts fanned out, and dead replicas repaired from a donor when they
// return:
//
//	dejavu-proxy -decision -listen :8080 -replicas host1:port,host2:port,host3:port
//	            [-replicas-tcp tcphost1:port,tcphost2:port,tcphost3:port]
//	            [-probe-interval 500ms] [-probe-fails 2]
//
// -replicas-tcp, when given, must list one raw-TCP decision address
// per replica (same order); decisions then ride the TCP plane while
// installs, puts, and health stay on HTTP.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/replica"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "address to accept client sessions on")
	production := flag.String("production", "", "byte-stream mode: production service address (required)")
	clone := flag.String("clone", "", "profiling clone address (empty disables duplication)")
	sample := flag.Int("sample", 1, "duplicate one in every N client sessions (byte-stream) or batches (decision)")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats reporting interval")
	decision := flag.Bool("decision", false, "decision mode: front a dejavud on the wire protocol")
	upstream := flag.String("upstream", "", "decision mode: upstream dejavud host:port (required)")
	upstreamTCP := flag.String("upstream-tcp", "", "decision mode: upstream dejavud raw-TCP decision address")
	cloneTCP := flag.String("clone-tcp", "", "decision mode: clone dejavud raw-TCP decision address")
	replicas := flag.String("replicas", "", "decision mode: comma-separated replica HTTP addresses (replicated tier instead of -upstream)")
	replicasTCP := flag.String("replicas-tcp", "", "decision mode: comma-separated replica raw-TCP decision addresses (same order as -replicas)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "replicated mode: health probe interval")
	probeFails := flag.Int("probe-fails", 2, "replicated mode: consecutive probe failures before a replica is marked down")
	pprofFlag := flag.Bool("pprof", false, "decision mode: expose net/http/pprof under /debug/pprof/ on the front's listener")
	flag.Parse()

	var err error
	switch {
	case *decision && *replicas != "":
		err = runReplicated(*listen, *replicas, *replicasTCP, *statsEvery, *probeInterval, *probeFails, *pprofFlag)
	case *decision:
		err = runDecision(*listen, *upstream, *upstreamTCP, *clone, *cloneTCP, *sample, *statsEvery, *pprofFlag)
	default:
		err = runByteStream(*listen, *production, *clone, *sample, *statsEvery)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dejavu-proxy:", err)
		os.Exit(1)
	}
}

// logf sends the libraries' operational log lines to stderr.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// runReplicated serves the decision front over a replicated dejavud
// tier until SIGINT/SIGTERM.
func runReplicated(listen, replicas, replicasTCP string, statsEvery time.Duration, probeInterval time.Duration, probeFails int, pprofOn bool) error {
	addrs := splitAddrs(replicas)
	if len(addrs) == 0 {
		return errors.New("-replicas needs at least one host:port")
	}
	tcpAddrs := splitAddrs(replicasTCP)
	if len(tcpAddrs) != 0 && len(tcpAddrs) != len(addrs) {
		return fmt.Errorf("-replicas-tcp lists %d addresses for %d replicas", len(tcpAddrs), len(addrs))
	}
	specs := make([]replica.Spec, len(addrs))
	for i, a := range addrs {
		specs[i] = replica.Spec{Name: a, Addr: a}
		if len(tcpAddrs) != 0 {
			specs[i].TCPAddr = tcpAddrs[i]
		}
	}
	reg, err := replica.New(replica.Config{
		Replicas: specs,
		Probe:    replica.ProbeConfig{Interval: probeInterval, FailAfter: probeFails},
		Logf:     logf,
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	front, err := proxy.NewDecisionFront(proxy.DecisionFrontConfig{
		Replicas: reg,
		Logf:     logf,
	})
	if err != nil {
		return err
	}
	defer front.Close()

	banner := fmt.Sprintf("-> %d replicas (%s)", len(addrs), strings.Join(addrs, ", "))
	return serveFront(front, listen, pprofOn, statsEvery, banner, func() string {
		st := front.Stats()
		ts := reg.Status()
		healthy := 0
		for _, r := range ts.Replicas {
			if r.Alive && r.Synced {
				healthy++
			}
		}
		return fmt.Sprintf("batches %d, decisions %d, errors %d, replicas %d/%d healthy, failovers %d",
			st.Batches, st.Decisions, st.Errors, healthy, len(ts.Replicas), ts.Failovers)
	})
}

// serveFront serves a decision front on listen — behind the pprof
// surfaces when asked — printing the start banner once and statusLine
// every statsEvery, until SIGINT/SIGTERM or the listener fails.
func serveFront(front *proxy.DecisionFront, listen string, pprofOn bool, statsEvery time.Duration, banner string, statusLine func() string) error {
	handler := front.Handler()
	if pprofOn {
		handler = obs.PprofHandler(handler)
		fmt.Printf("dejavu-proxy: profiling exposed on %s/debug/pprof/\n", listen)
	}
	srv := &http.Server{Addr: listen, Handler: handler}
	done := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			done <- err
		}
	}()
	fmt.Printf("dejavu-proxy: %s on %s %s\n", front, listen, banner)
	return reportUntilSignal(statsEvery, statusLine, srv.Close, done)
}

// reportUntilSignal prints statusLine every statsEvery until
// SIGINT/SIGTERM, when it returns stop(), or until serving ends on its
// own and done delivers why.
func reportUntilSignal(statsEvery time.Duration, statusLine func() string, stop func() error, done <-chan error) error {
	ticker := time.NewTicker(statsEvery)
	defer ticker.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case <-ticker.C:
			fmt.Println(statusLine())
		case <-sigs:
			fmt.Println("dejavu-proxy: shutting down")
			return stop()
		case err := <-done:
			return err
		}
	}
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runDecision serves the decision front until SIGINT/SIGTERM.
func runDecision(listen, upstream, upstreamTCP, clone, cloneTCP string, sample int, statsEvery time.Duration, pprofOn bool) error {
	if upstream == "" && upstreamTCP == "" {
		return errors.New("-decision needs -upstream host:port (or -upstream-tcp)")
	}
	up, err := client.New(client.Config{Addr: upstream, TCPAddr: upstreamTCP})
	if err != nil {
		return err
	}
	defer up.Close()
	cfg := proxy.DecisionFrontConfig{
		Upstream:    up,
		SampleEvery: sample,
		Logf:        logf,
	}
	if clone != "" || cloneTCP != "" {
		cl, err := client.New(client.Config{Addr: clone, TCPAddr: cloneTCP})
		if err != nil {
			return err
		}
		defer cl.Close()
		cfg.Clone = cl
	}
	front, err := proxy.NewDecisionFront(cfg)
	if err != nil {
		return err
	}
	defer front.Close()

	// A hop on the raw-TCP plane is described by its tcp:// address.
	desc := func(addr, tcpAddr string) string {
		if tcpAddr != "" {
			return "tcp://" + strings.TrimPrefix(tcpAddr, "tcp://")
		}
		return addr
	}
	banner := "-> dejavud " + desc(upstream, upstreamTCP)
	if clone != "" || cloneTCP != "" {
		banner += fmt.Sprintf(", mirroring 1/%d batches to %s", sample, desc(clone, cloneTCP))
	}
	return serveFront(front, listen, pprofOn, statsEvery, banner, func() string {
		st := front.Stats()
		return fmt.Sprintf("batches %d, decisions %d, errors %d, mirrored %d (drops %d, fails %d)",
			st.Batches, st.Decisions, st.Errors, st.Mirrored, st.MirrorDrops, st.MirrorFails)
	})
}

// runByteStream serves the transport-level duplicating proxy.
func runByteStream(listen, production, clone string, sample int, statsEvery time.Duration) error {
	if production == "" {
		return errors.New("-production is required (or use -decision mode)")
	}
	p, err := proxy.New(proxy.Config{
		ListenAddr:     listen,
		ProductionAddr: production,
		CloneAddr:      clone,
		SampleEvery:    sample,
	})
	if err != nil {
		return err
	}
	fmt.Printf("dejavu-proxy: listening on %s -> production %s", p.Addr(), production)
	if clone != "" {
		fmt.Printf(", duplicating 1/%d sessions to %s", sample, clone)
	}
	fmt.Println()

	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	return reportUntilSignal(statsEvery, func() string {
		st := p.Stats()
		return fmt.Sprintf("sessions %d, duplicated %d, in %dB, out %dB, mirrored %dB, clone errors %d",
			st.Sessions, st.Duplicated, st.BytesIn, st.BytesOut, st.BytesDuplicated, st.CloneErrors)
	}, p.Close, done)
}
