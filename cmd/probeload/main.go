// Command probeload is the fleet-node load harness: it replays
// thousands of concurrent simulated probe clients against a probe
// server — evenly ramped arrivals, fixed-rate pacing — and reports
// the session ceiling, admission outcomes and ack-latency quantiles,
// with a pass/fail SLO line usable in CI (exit 1 on FAIL).
//
// By default it self-hosts the server in-process (so it can also
// verify over-admission, shedding accounting, graceful drain, and
// spool completeness); -server points it at an external node instead.
//
// Usage:
//
//	probeload [-clients 2000] [-ramp 2s] [-duration 10s] [-rate 128e3]
//	          [-max-sessions 4096] [-readers 4] [-spool DIR]
//	          [-drain-timeout 5s] [-slo-p99 250ms]
//	          [-slo-min-admitted 0] [-server host:port]
//
// Clients send 256-byte packets from seed 1; the self-hosted server
// evicts idle sessions after 30 s and runs no rate limiter.
//
// SIGINT/SIGTERM mid-run cuts the load short and still drains the
// self-hosted server gracefully — the drain path is part of what the
// harness validates.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/mlab"
	"repro/internal/probe"
	"repro/internal/probe/load"
	"repro/internal/probe/spool"
)

// selfHostTTL is the self-hosted server's idle-session eviction age.
const selfHostTTL = 30 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "probeload:", err)
		os.Exit(1)
	}
}

func run() error {
	// Load shape.
	server := flag.String("server", "", "external probe server address (default: self-host in-process)")
	clients := flag.Int("clients", 2000, "concurrent simulated probe clients")
	ramp := flag.Duration("ramp", 2*time.Second, "spread client arrivals over this window")
	duration := flag.Duration("duration", 10*time.Second, "per-client data phase length")
	rate := flag.Float64("rate", 128e3, "per-client sending rate (bits/s)")

	// Self-hosted server shape.
	maxSessions := flag.Int("max-sessions", 4096, "self-hosted server session cap")
	readers := flag.Int("readers", 0, "self-hosted server reader goroutines (0 = default)")
	spoolDir := flag.String("spool", "", "self-hosted server spool directory (verified after the drain)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful drain deadline after the load completes")

	// SLO.
	sloP99 := flag.Duration("slo-p99", 250*time.Millisecond, "ack-latency p99 bound (0 = skip)")
	sloMinAdmitted := flag.Int("slo-min-admitted", 0, "minimum admitted clients (0 = skip)")
	flag.Parse()

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	cfg := load.Config{
		Server:   *server,
		Clients:  *clients,
		Ramp:     *ramp,
		Duration: *duration,
		RateBps:  *rate,
	}

	// Self-host unless an external target was named.
	var srv *probe.Server
	var sp *spool.Writer
	if *server == "" {
		var sink probe.RecordSink
		if *spoolDir != "" {
			var err error
			sp, err = spool.Open(spool.Config{Dir: *spoolDir})
			if err != nil {
				return err
			}
			sink = sp
		}
		var err error
		srv, err = probe.NewServer(probe.ServerConfig{
			Addr:        "127.0.0.1:0",
			MaxSessions: *maxSessions,
			SessionTTL:  selfHostTTL,
			Readers:     *readers,
			Sink:        sink,
		})
		if err != nil {
			return err
		}
		go srv.Serve()
		cfg.Server = srv.Addr().String()
		cfg.SampleActive = srv.ActiveSessions
		fmt.Printf("probeload: self-hosted server on %v (cap %d, ttl %v)\n",
			srv.Addr(), *maxSessions, selfHostTTL)
	}

	res, err := load.Run(ctx, cfg)
	if err != nil {
		return err
	}

	// Graceful drain of the self-hosted server: stop admitting, let the
	// remaining Byes land, flush every admitted-session summary.
	forced := 0
	var spooled int
	if srv != nil {
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		forced = srv.Drain(dctx)
		cancel()
		if sp != nil {
			if err := sp.Close(); err != nil {
				return err
			}
			spooled, err = countSpool(*spoolDir)
			if err != nil {
				return err
			}
		}
	}

	report(os.Stdout, res, srv, forced, spooled)
	failures := evaluateSLO(res, srv, forced, spooled, sloSpec{
		p99:         *sloP99,
		minAdmitted: *sloMinAdmitted,
		maxSessions: *maxSessions,
	})
	if len(failures) > 0 {
		fmt.Printf("SLO FAIL: %s\n", strings.Join(failures, "; "))
		os.Exit(1)
	}
	fmt.Println("SLO PASS")
	return nil
}

func report(w io.Writer, res *load.Result, srv *probe.Server, forced, spooled int) {
	fmt.Fprintf(w, "clients        %d (admitted %d, busy %d, draining %d, unresponsive %d, errors %d)\n",
		res.Clients, res.Admitted, res.Busy, res.Draining, res.Unresponsive, res.Errors)
	fmt.Fprintf(w, "concurrency    peak %d clients in data phase", res.PeakConcurrent)
	if res.PeakServerSessions > 0 {
		fmt.Fprintf(w, ", peak %d server sessions", res.PeakServerSessions)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "data           sent %d, acked %d (loss %.2f%%)\n",
		res.Sent, res.Acked, 100*res.LossRate())
	fmt.Fprintf(w, "ack latency    p50 %v  p90 %v  p99 %v  max %v\n",
		res.LatencyQuantile(0.50).Round(10*time.Microsecond),
		res.LatencyQuantile(0.90).Round(10*time.Microsecond),
		res.LatencyQuantile(0.99).Round(10*time.Microsecond),
		res.LatencyQuantile(1).Round(10*time.Microsecond))
	if srv != nil {
		st := &srv.Stats
		fmt.Fprintf(w, "server         sessions %d, rejected %d, evicted %d, oversize %d\n",
			st.Sessions.Value(), st.Rejected.Value(), st.Evicted.Value(), st.Oversize.Value())
		fmt.Fprintf(w, "drain          forced %d sessions at deadline, %d drained summaries, spool errors %d\n",
			forced, st.Drained.Value(), st.SpoolErrors.Value())
		if spooled > 0 || st.Sessions.Value() > 0 {
			fmt.Fprintf(w, "spool          %d records for %d admitted sessions\n",
				spooled, st.Sessions.Value())
		}
	}
	fmt.Fprintf(w, "elapsed        %v\n", res.Elapsed.Round(time.Millisecond))
}

type sloSpec struct {
	p99         time.Duration
	minAdmitted int
	maxSessions int
}

// evaluateSLO returns the list of violated objectives (empty = pass).
func evaluateSLO(res *load.Result, srv *probe.Server, forced, spooled int, slo sloSpec) []string {
	var fails []string
	if res.Errors > 0 {
		fails = append(fails, fmt.Sprintf("%d client errors", res.Errors))
	}
	if slo.minAdmitted > 0 && res.Admitted < slo.minAdmitted {
		fails = append(fails, fmt.Sprintf("admitted %d < %d", res.Admitted, slo.minAdmitted))
	}
	if slo.p99 > 0 && res.Acked > 0 {
		if p99 := res.LatencyQuantile(0.99); p99 > slo.p99 {
			fails = append(fails, fmt.Sprintf("ack p99 %v > %v", p99.Round(time.Microsecond), slo.p99))
		}
	}
	if srv == nil {
		return fails
	}
	// Server-side objectives (self-host only).
	if res.PeakServerSessions > slo.maxSessions {
		fails = append(fails, fmt.Sprintf("over-admission: peak %d sessions > cap %d",
			res.PeakServerSessions, slo.maxSessions))
	}
	if forced > 0 {
		fails = append(fails, fmt.Sprintf("drain deadline hit with %d sessions live", forced))
	}
	if srv.Stats.SpoolErrors.Value() > 0 {
		fails = append(fails, fmt.Sprintf("%d spool errors", srv.Stats.SpoolErrors.Value()))
	}
	if spooled > 0 {
		if want := int(srv.Stats.Sessions.Value()); spooled != want {
			fails = append(fails, fmt.Sprintf("spool has %d records for %d admitted sessions", spooled, want))
		}
	}
	return fails
}

// countSpool verifies every spool file parses as mlab records (the
// exact reader mlabanalyze uses) and returns the record count.
func countSpool(dir string) (int, error) {
	files, err := spool.Files(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		src, err := mlab.NewRecordStream(f, mlab.StreamLimits{})
		if err != nil {
			f.Close()
			return 0, err
		}
		for {
			var rec mlab.Record
			if err := src.Next(&rec); err != nil {
				if err == io.EOF {
					break
				}
				f.Close()
				return 0, fmt.Errorf("spool %s: %w", path, err)
			}
			total++
		}
		f.Close()
	}
	return total, nil
}
