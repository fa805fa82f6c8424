// Command dejavud is the DejaVu decision daemon: a long-running
// network service that owns learned signature repositories — one per
// service template — and serves classify/lookup decisions over the
// shared wire protocol (binary columnar batch frames, over HTTP or the
// raw-TCP stream plane) to a fleet of controllers, completing the
// reproduction's path from in-process library to deployable
// control-plane service.
//
// Lifecycle:
//
//   - On start, the daemon loads each template's repository from its
//     snapshot file if present; otherwise it runs the learning phase
//     over a synthetic learning day for the template's service and
//     persists the result. With -services none it starts empty and
//     waits for a control plane to POST /v1/install learned
//     repositories (the fleet's remote mode does exactly this).
//   - At runtime it serves decisions (binary batch frames) and the
//     JSON admin plane; docs/ARCHITECTURE.md § Endpoints lists every
//     route. The decision path is allocation-free; every repository
//     sits behind a versioned atomic handle, routed by the template
//     id in the wire header.
//   - Each template has its own online drift monitor; when a
//     template's unforeseen-signature rate crosses the threshold,
//     the daemon re-clusters that template's recently observed
//     signatures in the background (single-flight per template) and
//     hot-swaps the new repository version without blocking
//     in-flight requests.
//   - On SIGINT/SIGTERM the daemon stops accepting connections,
//     drains, snapshots every template, and exits — the next start
//     resumes from the snapshots with identical decisions.
//
// Examples:
//
//	dejavud -addr :7700 -services cassandra,specweb -snapshot /var/lib/dejavud/repo.json
//	dejavud -addr :7700 -services none   # install-only: templates arrive via /v1/install
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/trace"
)

// newService instantiates a service template by name.
func newService(name string) (services.Service, error) {
	switch name {
	case "cassandra":
		return services.NewCassandra(), nil
	case "specweb":
		return services.NewSPECWeb(), nil
	case "rubis":
		return services.NewRUBiS(), nil
	}
	return nil, fmt.Errorf("unknown service %q (want cassandra, specweb, or rubis)", name)
}

// peakClients mirrors the fleet scenario generator's operating points:
// the learning-day peak saturates roughly 3/4 of full capacity.
func peakClients(svc services.Service) float64 {
	switch svc.Name() {
	case "specweb":
		return 350
	case "rubis":
		return 800
	default: // cassandra
		return 480
	}
}

// learnRepository runs the learning phase over a synthetic learning
// day, like a fleet template's first VM would.
func learnRepository(svc services.Service, seed int64, workers int) (*core.Repository, error) {
	learnRng := rand.New(rand.NewSource(seed))
	week := trace.Messenger(trace.SynthConfig{Rng: learnRng, DailyPhaseShift: true}).ScaleTo(peakClients(svc))
	day, err := week.Day(0)
	if err != nil {
		return nil, err
	}
	prof, err := core.NewProfiler(svc, learnRng)
	if err != nil {
		return nil, err
	}
	tuner, err := fleet.DefaultTuner(svc)
	if err != nil {
		return nil, err
	}
	repo, report, err := core.Learn(core.LearnConfig{
		Profiler:  prof,
		Tuner:     tuner,
		Workloads: core.WorkloadsFromTrace(day, svc.DefaultMix()),
		Rng:       learnRng,
		Workers:   workers,
	})
	if err != nil {
		return nil, err
	}
	log.Printf("dejavud: %s: learned %d classes over %d workloads (classifier accuracy %.2f)",
		svc.Name(), report.Classes, report.NumWorkloads, report.ClassifierAccuracy)
	return repo, nil
}

// templateNames parses the -services flag: a comma-separated list, or
// "none" to start empty (install-only).
func templateNames(raw string) ([]string, error) {
	if raw == "none" {
		return nil, nil
	}
	var names []string
	seen := map[string]bool{}
	for _, n := range strings.Split(raw, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if seen[n] {
			return nil, fmt.Errorf("service %q listed twice", n)
		}
		seen[n] = true
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, errors.New("no services named (use -services none for install-only mode)")
	}
	return names, nil
}

// loadOrLearn resolves one template's repository: snapshot if
// readable, fresh learning phase otherwise. A snapshot that exists
// but fails to parse (torn write from a crash, manual corruption) is
// set aside and re-learned from scratch rather than wedging the
// daemon on start.
func loadOrLearn(name, snapPath string, seed int64, workers int) (repo *core.Repository, learned bool, err error) {
	if snapPath != "" {
		if f, err := os.Open(snapPath); err == nil {
			repo, err = core.LoadRepository(f)
			f.Close()
			if err != nil {
				bad := snapPath + ".corrupt"
				if rerr := os.Rename(snapPath, bad); rerr != nil {
					return nil, false, fmt.Errorf("load snapshot %s: %w (and could not set it aside: %v)", snapPath, err, rerr)
				}
				log.Printf("dejavud: WARNING: snapshot %s is unreadable (%v); moved to %s, re-learning",
					snapPath, err, bad)
				repo = nil
			} else {
				log.Printf("dejavud: %s: loaded repository from %s (%d classes, %d entries)",
					name, snapPath, repo.Classes(), repo.Len())
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, false, fmt.Errorf("open snapshot %s: %w", snapPath, err)
		}
	}
	if repo != nil {
		return repo, false, nil
	}
	svc, err := newService(name)
	if err != nil {
		return nil, false, err
	}
	log.Printf("dejavud: %s: no snapshot, learning from a synthetic day...", name)
	repo, err = learnRepository(svc, seed, workers)
	if err != nil {
		return nil, false, err
	}
	return repo, true, nil
}

func run() error {
	addr := flag.String("addr", ":7700", "HTTP listen address (decisions, admin, metrics)")
	tcpAddr := flag.String("tcp-addr", "", `raw-TCP decision listen address (e.g. ":7701"); empty disables the TCP plane`)
	accepters := flag.Int("tcp-accepters", 1, "parallel accept loops on the TCP decision listener")
	tcpHelloTimeout := flag.Duration("tcp-hello-timeout", 0, "deadline for a TCP client's hello (0 = default 10s, negative disables)")
	tcpIdleTimeout := flag.Duration("tcp-idle-timeout", 0, "reap TCP connections idle this long between requests (0 = default 5m, negative disables)")
	tcpMaxConns := flag.Int("tcp-max-conns", 0, "cap on concurrent TCP decision connections (0 = unlimited)")
	servicesFlag := flag.String("services", "cassandra", `comma-separated service templates to serve (e.g. "cassandra,specweb"); "none" starts install-only`)
	snapshot := flag.String("snapshot", "dejavud-repo.json", "repository snapshot path (load on start, write on shutdown); %s substitutes the template id; empty disables persistence")
	seed := flag.Int64("seed", 42, "seed for learning and re-learning randomness")
	workers := flag.Int("workers", 0, "clustering fan-out bound (0 = GOMAXPROCS)")
	driftWindow := flag.Int("drift-window", 512, "decisions per drift observation window")
	driftThreshold := flag.Float64("drift-threshold", 0.5, "unforeseen fraction that triggers re-learning")
	noRelearn := flag.Bool("no-relearn", false, "disable drift-triggered background re-learning")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the admin plane")
	flag.Parse()

	names, err := templateNames(*servicesFlag)
	if err != nil {
		return err
	}

	templates := make(map[string]*core.Handle, len(names))
	anyLearned := false
	for i, name := range names {
		snapPath := ""
		if *snapshot != "" {
			snapPath = server.SnapshotPathFor(*snapshot, name, len(names) == 1)
		}
		repo, learned, err := loadOrLearn(name, snapPath, rng.Derive(*seed, i), *workers)
		if err != nil {
			return err
		}
		anyLearned = anyLearned || learned
		h, err := core.NewHandle(repo)
		if err != nil {
			return err
		}
		templates[name] = h
	}

	cfg := server.Config{
		Templates:    templates,
		SnapshotPath: *snapshot,
		Drift: server.DriftConfig{
			Window:    *driftWindow,
			Threshold: *driftThreshold,
		},
		Logf: log.Printf,
	}
	if !*noRelearn {
		// Per-template relearn rounds feed the derived-seed chain so
		// repeated relearns (and relearns of different templates)
		// consume independent random streams. Rounds are guarded by a
		// mutex: relearns are single-flight per template but several
		// templates can rebuild at once.
		var mu sync.Mutex
		rounds := map[string]int{}
		cfg.Relearn = func(template string, events []metrics.Event, rows [][]float64) (*core.Repository, error) {
			mu.Lock()
			rounds[template]++
			round := rounds[template]
			mu.Unlock()
			return core.RelearnFromSignatures(events, rows, core.OnlineRelearnConfig{
				Rng:     rng.New(rng.Derive(rng.Derive(*seed, round), int(templateSeed(template)))),
				Workers: *workers,
			})
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}

	// Persist fresh learning runs right away: a non-graceful death
	// later must not cost the whole learning phase again.
	if anyLearned && *snapshot != "" {
		results, err := s.Snapshot()
		if err != nil {
			return fmt.Errorf("persist learned repositories: %w", err)
		}
		for _, r := range results {
			log.Printf("dejavud: persisted template %s to %s", r.Template, r.Path)
		}
	}

	handler := s.Handler()
	if *pprofFlag {
		handler = obs.PprofHandler(handler)
		log.Printf("dejavud: profiling exposed on %s/debug/pprof/", *addr)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 2)
	go func() {
		if len(names) == 0 {
			log.Printf("dejavud: serving on %s with no templates — waiting for /v1/install", *addr)
		} else {
			log.Printf("dejavud: serving %s decisions on %s", strings.Join(names, ","), *addr)
		}
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	// The raw-TCP decision plane rides beside HTTP: same templates,
	// same decide path, no HTTP framing. Clients opt in with
	// tcp://host:port (admin traffic stays on -addr).
	var tcpSrv *server.TCPServer
	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			return fmt.Errorf("tcp decision listener: %w", err)
		}
		tcpSrv = server.NewTCP(s, server.TCPConfig{
			Accepters:    *accepters,
			HelloTimeout: *tcpHelloTimeout,
			IdleTimeout:  *tcpIdleTimeout,
			MaxConns:     *tcpMaxConns,
		})
		go func() {
			log.Printf("dejavud: serving raw-TCP decisions on %s (%d accepters)", *tcpAddr, *accepters)
			if err := tcpSrv.Serve(ln); err != nil {
				errCh <- err
			}
		}()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: drain in-flight requests, then persist.
	log.Printf("dejavud: shutting down...")
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("dejavud: drain: %v", err)
	}
	if tcpSrv != nil {
		if err := tcpSrv.Close(); err != nil {
			log.Printf("dejavud: tcp drain: %v", err)
		}
	}
	if *snapshot != "" {
		results, err := s.Snapshot()
		if err != nil {
			return fmt.Errorf("shutdown snapshot: %w", err)
		}
		for _, r := range results {
			log.Printf("dejavud: snapshotted template %s version %d to %s", r.Template, r.Version, r.Path)
		}
	}
	return nil
}

// templateSeed folds a template id into a stable seed component.
func templateSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h = (h ^ int64(name[i])) * 1099511628211
	}
	return h
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dejavud:", err)
		os.Exit(1)
	}
}
