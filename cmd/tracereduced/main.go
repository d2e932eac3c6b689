// Command tracereduced is the long-running trace-reduction service: an
// HTTP server that accepts concurrent TRC1/TRC2 uploads, reduces them
// on a bounded shared worker fleet, and streams back reduced containers
// byte-identical to the tracereduce CLI's output.
//
// Usage:
//
//	tracereduced                       # serve on :8321
//	tracereduced -addr 127.0.0.1:0     # ephemeral port (printed on stdout)
//	tracereduced -sessions 16 -fleet 8 -cache-mb 512
//
// Endpoints:
//
//	POST /v1/reduce?method=&threshold=&format=   reduce an uploaded trace
//	GET  /v1/analyze?sig=&method=&...            diagnosis of a cached reduction
//	GET  /metrics                                Prometheus text metrics
//	GET  /healthz                                liveness (503 while draining)
//
// On SIGINT/SIGTERM the server drains: health flips to 503, new
// sessions are refused, in-flight reductions finish, then the process
// exits 0. See docs/SERVICE.md for the full API and semantics.
//
// -cpuprofile/-memprofile/-mutexprofile/-blockprofile write standard
// pprof profiles spanning the server's lifetime (flushed at shutdown);
// reduce sessions and pipeline workers carry pprof labels, so per-tenant
// and per-stage costs separate cleanly in the CPU profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/profiling"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address (host:port; port 0 picks one)")
	sessions := flag.Int("sessions", 0, "max concurrent reduce sessions (0 = default 8)")
	fleet := flag.Int("fleet", 0, "global worker-slot budget (0 = GOMAXPROCS)")
	sessionWorkers := flag.Int("session-workers", 0, "fleet slots one session asks for (0 = whole fleet)")
	uploadMB := flag.Int64("upload-mb", 0, "per-session upload budget in MiB (0 = default 256)")
	cacheMB := flag.Int64("cache-mb", 0, "representative cache budget in MiB (0 = default 256, negative disables the cache and the signature memo)")
	degradeAt := flag.Float64("degrade-at", 0, "load fraction at which new sessions degrade (0 = default 0.75)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight sessions on shutdown")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the server's lifetime to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at shutdown to `file`")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile (fleet/cache locks) to `file`")
	blockprofile := flag.String("blockprofile", "", "write a blocking profile (fleet waits, the engine's claim lock) to `file`")
	flag.Parse()

	cfg := serve.Config{
		MaxSessions:    *sessions,
		FleetWorkers:   *fleet,
		SessionWorkers: *sessionWorkers,
		MaxUploadBytes: *uploadMB << 20,
		CacheBytes:     *cacheMB << 20,
		DegradeAt:      *degradeAt,
	}
	if *cacheMB < 0 {
		cfg.CacheBytes = -1
	}
	stopProf, err := profiling.StartProfiles(profiling.Profiles{
		CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracereduced:", err)
		os.Exit(1)
	}
	runErr := run(*addr, cfg, *drainTimeout)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tracereduced:", runErr)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "tracereduced:", err)
		os.Exit(1)
	}
	if runErr != nil {
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, drainTimeout time.Duration) error {
	s := serve.NewServer(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout so wrappers (the e2e harness,
	// scripts binding port 0) can discover the port.
	fmt.Printf("tracereduced: listening on %s\n", ln.Addr())
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("tracereduced: %s, draining\n", sig)
		// Drain first so health checks fail fast and new sessions are
		// refused, then let Shutdown wait out the in-flight ones.
		s.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("draining: %w", err)
		}
		fmt.Println("tracereduced: drained")
		return nil
	}
}
