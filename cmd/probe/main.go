// Command probe runs the client side of the active elasticity
// measurement against a probed server: it paces a Nimbus-controlled
// stream with mode switching disabled, keeps the bandwidth
// oscillations running, and reports the measured elasticity of the
// path's cross traffic — the speedtest-style study §3.2 proposes.
//
// A run lasts 30 s and paces 1200-byte packets pulsed at 2 Hz, the
// paper's probe (nimbus.PaperConfig) that every simulated probe cell
// runs; it ends early, truncated, when no ack arrives for 3 s.
//
// Usage:
//
//	probe -server host:4460 [-mu 48e6] [-handshake-timeout 250ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/nimbus"
	"repro/internal/probe"
)

func main() {
	server := flag.String("server", "127.0.0.1:4460", "probe server address")
	mu := flag.Float64("mu", 0, "known bottleneck rate in bits/s (0 = auto-track)")
	hsTimeout := flag.Duration("handshake-timeout", 250*time.Millisecond,
		"first handshake reply deadline (doubles per retry)")
	flag.Parse()

	rep, err := probe.NewClient(clientConfig(*server, *mu, *hsTimeout)).Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // client errors carry the "probe:" prefix
		os.Exit(1)
	}
	fmt.Printf("session        %d\n", rep.Session)
	fmt.Printf("sent/acked     %d/%d (loss %.2f%%)\n", rep.Sent, rep.Acked, 100*rep.LossRate)
	fmt.Printf("rtt min/mean   %v / %v\n", rep.MinRTT, rep.MeanRTT)
	fmt.Printf("throughput     %.2f Mbit/s\n", rep.ThroughputBps/1e6)
	fmt.Printf("cross traffic  %.2f Mbit/s (estimated)\n", rep.CrossRateBps/1e6)
	fmt.Printf("mean eta       %.3f (%d windows)\n", rep.MeanEta, rep.Windows)
	if rep.Truncated {
		fmt.Printf("truncated      after %v: %s\n", rep.Elapsed.Round(time.Millisecond), rep.TruncatedReason)
	}
	fmt.Printf("confidence     %.2f\n", rep.Confidence)
	switch v := rep.Verdict(); v {
	case "inconclusive":
		fmt.Printf("verdict        inconclusive (low confidence; rerun)\n")
	default:
		fmt.Printf("verdict        %s (CCA contention %s)\n", v,
			map[bool]string{true: "detected", false: "not detected"}[rep.Elastic])
	}
}

// clientConfig is the client a probe run drives: the paper's probe
// against server.
func clientConfig(server string, mu float64, hsTimeout time.Duration) probe.ClientConfig {
	return probe.ClientConfig{
		Server:           server,
		Nimbus:           nimbus.PaperConfig(mu),
		HandshakeTimeout: hsTimeout,
	}
}
