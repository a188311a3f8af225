package core

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/nimbus"
	"repro/internal/probe"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "regenerate testdata/socketprobe.golden")

// simClientAddr is the address the simulated client's datagrams reach
// the server from.
var simClientAddr = &net.UDPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 4460}

// socketProbeAgainst is probeAgainst for the shipped socket probe, on
// the simulator's clock instead of a socket's: a probe.Client's session
// is flow 1 on the cell s describes (its hops; s has no flows), each
// datagram it sends crosses hop 0 as one packet of that flow to a
// probe.Server, and the server's replies come back over the return
// delay line, as a Flow's acks do. The client starts first, cross is
// added after it, and the cell runs until the session is over. It
// returns the client's report and the session's error, and releases
// the cell.
func socketProbeAgainst(t testing.TB, s cellSpec, cross flow, seed int64) (*probe.Report, error) {
	cell, err := newCell(s)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.release()
	srv, err := probe.NewServer(probe.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := probe.NewClient(probe.ClientConfig{Server: "simulated", Nimbus: nimbus.PaperConfig(s.hops[0].rateBps), Seed: seed})
	p := c.Session()
	eng := cell.eng
	path, owd := cell.route(nil)
	ret := eng.DelayLine(owd)

	// A packet carries its datagram's header as an index into headers
	// (Packet.Seq), so a duplicating fault stage duplicates the
	// datagram too; the bytes past the header are zeros.
	var headers [][probe.HeaderSize]byte
	scratch := make([]byte, probe.MaxDatagram)
	reply := make([]byte, probe.HeaderSize)
	var timer sim.Timer
	var armed time.Duration
	var wake func()
	arm := func() {
		if p.Done() || (timer.Active() && armed == p.Next()) {
			return
		}
		timer.Cancel()
		armed = p.Next()
		timer = eng.ScheduleAt(armed, wake)
	}
	wake = func() {
		p.Wake(eng.Now())
		arm()
	}
	var endpoint sim.ReceiverFunc
	carry := func(b []byte, toClient bool) *sim.Packet {
		pkt := eng.NewPacket()
		pkt.FlowID, pkt.UserID, pkt.Size, pkt.SentAt, pkt.Ack = 1, crossUser, len(b), eng.Now(), toClient
		pkt.Seq, pkt.Dest = int64(len(headers)), endpoint
		headers = append(headers, [probe.HeaderSize]byte(b[:probe.HeaderSize]))
		return pkt
	}
	endpoint = func(pkt *sim.Packet) {
		b := scratch[:pkt.Size]
		copy(b, headers[pkt.Seq][:])
		toClient := pkt.Ack
		pkt.Release()
		if toClient {
			p.Receive(b, eng.Now())
			arm()
		} else if r := srv.HandleDatagram(b, simClientAddr, eng.Now(), reply); r != nil {
			ret.Push(carry(r, true))
		}
	}
	p.Send = func(b []byte) error {
		pkt := carry(b, false)
		pkt.Path = path
		sim.Inject(pkt)
		return nil
	}
	arm()
	if _, err := cell.add(&cross); err != nil {
		t.Fatal(err)
	}
	for !p.Done() && eng.Step() {
	}
	return c.Report(), p.Err
}

// The differential's grid: the fig3 link under each named profile.
var (
	diffProfiles = []string{"", "wifi-bursty", "dsl-noise", "satellite-jitter", "flaky-cellular"}
	diffCross    = []string{"idle", "cbr", "reno", "bbr"}
)

// diffDuration is the socket client's fixed run; the simulated probe is
// scored over the same span, from the client's settle (a quarter of it).
const diffDuration = 30 * time.Second

// TestSocketProbeDifferential runs the shipped socket client and
// server on the simulator beside probeAgainst, over 5 named fault
// profiles × 4 cross kinds on the Figure 3 link (48 Mbit/s, 100 ms
// RTT, one BDP of droptail), and pins each probe's mean η, window
// count and verdict, byte for byte, in testdata/socketprobe.golden.
// Disagreements are recorded as measured; docs/PROBED.md names their
// causes. About 3 s of wall time on one amd64 core.
func TestSocketProbeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("40 thirty-second cells")
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "%-16s %-5s | %7s %3s %-9s | %8s %3s %-12s %13s %6s %8s\n",
		"profile", "cross", "sim-eta", "win", "verdict", "sock-eta", "win", "verdict", "tput", "loss", "mean-rtt")
	for _, prof := range diffProfiles {
		spec := cellSpec{hops: []hop{{rateBps: fig3RateBps, delay: fig3OneWayDelay, faultProfile: prof, faultSeed: 1}}}
		for _, kind := range diffCross {
			cross := flow{id: 2, user: crossUser, kind: kind, cbrBps: 0.4 * fig3RateBps}
			v, err := probeAgainst(spec, paperProbe(fig3RateBps), cross, diffDuration/4, diffDuration)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := socketProbeAgainst(t, spec, cross, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", prof, kind, err)
			}
			name := prof
			if name == "" {
				name = "clean"
			}
			fmt.Fprintf(&out, "%-16s %-5s | %7.3f %3d %-9s | %8.3f %3d %-12s %13s %5.1f%% %8v\n",
				name, kind, v.Mean, v.Windows, verdictWord(v.Elastic), rep.MeanEta, rep.Windows,
				rep.Verdict(), FmtBps(rep.ThroughputBps), 100*rep.LossRate, rep.MeanRTT.Round(time.Millisecond))
		}
	}
	golden := filepath.Join("testdata", "socketprobe.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("differential moved from %s:\ngot:\n%s\nwant:\n%s", golden, out.Bytes(), want)
	}
}

func verdictWord(elastic bool) string {
	if elastic {
		return "elastic"
	}
	return "inelastic"
}
