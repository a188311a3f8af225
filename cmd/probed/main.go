// Command probed runs the elasticity probe server as a fleet
// measurement node: concurrent readers over one session table under
// one lock, per-source and global admission control, a durable results
// spool in the M-Lab record schema, and a graceful SIGTERM drain. A
// session starts only with a Hello, every refused Hello gets a Busy
// reply, and a session answers only to the address its Hello came
// from (docs/PROBED.md, "Threat model").
//
// Usage:
//
//	probed [-addr :4460] [-readers 0]
//	       [-max-sessions 1024] [-session-ttl 2m]
//	       [-per-source-pps 0] [-global-pps 0]
//	       [-spool DIR] [-spool-max-bytes 64Mi] [-fsync-every 0]
//	       [-drain-timeout 10s] [-admin 127.0.0.1:6060]
//
// The node logs each session's start and end.
//
// On SIGTERM or SIGINT the node stops admitting sessions (new Hellos
// get Busy|FlagDraining replies), waits up to -drain-timeout for
// admitted sessions to finish, force-finalizes the rest, and flushes
// every session summary to the spool before exiting. A second signal
// exits immediately. The spool directory is plain JSONL consumable by
// mlabanalyze:
//
//	cat spool/*.jsonl | mlabanalyze
//
// The admin endpoint adds /healthz (full health JSON, always 200 while
// the process is up), /readyz (200 while accepting sessions, 503 once
// draining — wire this one into load-balancer checks), /metrics (the
// server's probe.server.* registry in the Prometheus/OpenMetrics text
// format, lifetime counts typed as counters, for any standard
// collector), and /timeseries (recent history rings — every registry
// metric plus Go runtime series sampled at -record-every, queryable by
// name and dumpable as JSONL with ?format=jsonl). The
// admin server is closed gracefully after the drain completes, so a
// scrape racing shutdown still gets its reply.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/probe"
	"repro/internal/probe/spool"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "probed:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":4460", "UDP listen address")
	readers := flag.Int("readers", 0, "reader goroutines sharing the socket (0 = min(4, GOMAXPROCS))")
	maxSessions := flag.Int("max-sessions", 1024, "concurrent session cap")
	sessionTTL := flag.Duration("session-ttl", 2*time.Minute,
		"evict sessions idle for this long")
	perSourcePPS := flag.Float64("per-source-pps", 0,
		"per-source-IP Hello rate limit ahead of admission, in Hellos/s (0 = off)")
	globalPPS := flag.Float64("global-pps", 0,
		"global packets-per-second ceiling with prioritized shedding (0 = off)")
	spoolDir := flag.String("spool", "",
		"append session summaries to size-rotated JSONL files in this directory")
	spoolMaxBytes := flag.Int64("spool-max-bytes", 64<<20,
		"rotate spool files at this size")
	fsyncEvery := flag.Int("fsync-every", 0,
		"fsync the active spool file every N records (0 = only on rotation/close)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"wait this long for sessions to finish after SIGTERM before force-finalizing")
	admin := flag.String("admin", "",
		"serve an HTTP admin endpoint (expvar, pprof, /sessions, /healthz, /readyz, /metrics, /timeseries) on this address")
	recordEvery := flag.Duration("record-every", time.Second,
		"timeseries recorder sampling cadence (with -admin)")
	flag.Parse()

	cfg := probe.ServerConfig{
		Addr:         *addr,
		MaxSessions:  *maxSessions,
		SessionTTL:   *sessionTTL,
		Readers:      *readers,
		PerSourcePPS: *perSourcePPS,
		GlobalPPS:    *globalPPS,
		Logf:         log.Printf,
	}

	var sp *spool.Writer
	if *spoolDir != "" {
		var err error
		sp, err = spool.Open(spool.Config{
			Dir:          *spoolDir,
			MaxFileBytes: *spoolMaxBytes,
			FsyncEvery:   *fsyncEvery,
		})
		if err != nil {
			return err
		}
		cfg.Sink = sp
		log.Printf("probed: spooling session records to %s", *spoolDir)
	}

	srv, err := probe.NewServer(cfg)
	if err != nil {
		return err
	}
	log.Printf("probed: listening on %v", srv.Addr())

	if *admin != "" {
		reg := srv.Metrics()
		rec := timeseries.New(timeseries.Config{
			Registry: reg,
			Interval: *recordEvery,
			Runtime:  true,
		})
		recCtx, recStop := context.WithCancel(context.Background())
		defer recStop()
		go rec.Run(recCtx)
		mux := obs.AdminMux(map[string]http.Handler{
			"/sessions":   obs.JSONHandler(func() interface{} { return srv.Sessions() }),
			"/healthz":    obs.JSONHandler(func() interface{} { return srv.Health() }),
			"/readyz":     readyHandler(srv),
			"/metrics":    obs.MetricsHandler(reg),
			"/timeseries": rec.Handler(),
		})
		adm, err := obs.ServeAdmin(*admin, mux)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		// Deferred graceful close: the admin surface stays up through
		// the drain (so /readyz keeps steering traffic away and a last
		// /metrics or /timeseries scrape can capture the drain), then
		// shuts down draining its own in-flight requests.
		defer adm.Close()
		log.Printf("probed: admin endpoint on http://%v", adm.Addr())
	}

	// First SIGTERM/SIGINT begins the drain; a second one cancels the
	// drain context, which force-finalizes whatever is still live.
	ctx, stopSig := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case err := <-serveErr:
		if sp != nil {
			sp.Close()
		}
		return err
	case <-ctx.Done():
	}
	stopSig() // restore default handling: a second signal kills the process

	log.Printf("probed: draining %d active sessions (deadline %v)",
		srv.ActiveSessions(), *drainTimeout)
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	forced := srv.Drain(dctx)
	cancel()
	<-serveErr
	if forced > 0 {
		log.Printf("probed: drain deadline hit, force-finalized %d sessions", forced)
	}

	if sp != nil {
		if err := sp.Close(); err != nil {
			return fmt.Errorf("spool close: %w", err)
		}
		st := sp.Stats()
		log.Printf("probed: spool flushed (%d records, %d rotations)", st.Appended, st.Rotations)
	}
	log.Printf("probed: shut down (sessions=%d data=%d acks=%d drained=%d)",
		srv.Stats.Sessions.Value(), srv.Stats.DataPackets.Value(),
		srv.Stats.Acks.Value(), srv.Stats.Drained.Value())
	return nil
}

// readyHandler is the load-balancer readiness check: 200 while the
// node accepts new sessions, 503 once draining or closed so traffic
// shifts away while admitted sessions finish.
func readyHandler(srv *probe.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := srv.Health(); !h.Ready {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
}
