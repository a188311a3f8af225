package probe

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/mlab"
	"repro/internal/probe/spool"
)

// TestServerSpoolRoundTripThroughMlab: sessions served over the wire
// land in a real spool, and the spool files parse with the exact
// decoder mlabanalyze uses — the fleet-node → analysis pipeline needs
// no translation step. The probe-side summary rides along as an extra
// JSON key the mlab decoder ignores.
func TestServerSpoolRoundTripThroughMlab(t *testing.T) {
	dir := t.TempDir()
	sp, err := spool.Open(spool.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 8, SessionTTL: time.Hour,
		SnapshotInterval: 20 * time.Millisecond, Sink: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	for _, id := range []uint64{0xa1, 0xb2} {
		conn, reply, ok := dialHello(t, srv.Addr().String(), id)
		if !ok || reply.Type != TypeHi {
			t.Fatal("admission failed")
		}
		buf := make([]byte, 256)
		resp := make([]byte, 2048)
		for seq := uint64(0); seq < 10; seq++ {
			h := Header{Type: TypeData, Session: id, Seq: seq,
				SendNano: time.Now().UnixNano()}
			h.Encode(buf)
			conn.Write(buf)
			conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			conn.Read(resp)
			time.Sleep(5 * time.Millisecond)
		}
		bye := Header{Type: TypeBye, Session: id}
		bye.Encode(buf)
		conn.Write(buf[:HeaderSize])
		conn.Close()
	}
	deadline := time.Now().Add(time.Second)
	for srv.ActiveSessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats.SpoolErrors.Value(); got != 0 {
		t.Fatalf("SpoolErrors = %d", got)
	}

	files, err := spool.Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("spool has %d files, want 1 active", len(files))
	}

	// Pass 1: the mlab decoder (what mlabanalyze runs).
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := mlab.NewRecordStream(f, mlab.StreamLimits{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []mlab.Record
	for {
		var rec mlab.Record
		if err := src.Next(&rec); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("mlab decoder read %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.ID == "" || rec.Duration <= 0 {
			t.Errorf("record %+v missing identity or duration", rec)
		}
		if len(rec.Snapshots) == 0 {
			t.Errorf("record %s has no throughput snapshots", rec.ID)
		}
		if rec.Access != mlab.AccessEthernet {
			t.Errorf("record %s access = %q; the analysis pipeline would filter it", rec.ID, rec.Access)
		}
		for _, sn := range rec.Snapshots {
			if sn.AppLimited != 0 || sn.RWndLimited != 0 {
				t.Errorf("record %s marked app/rwnd-limited; the analysis pipeline would exclude it", rec.ID)
			}
		}
	}

	// Pass 2: the probe summary survives as the "probe" key.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(f)
	causes := map[string]int{}
	for dec.More() {
		var sr SessionRecord
		if err := dec.Decode(&sr); err != nil {
			t.Fatal(err)
		}
		if sr.Probe.Session == "" || sr.Probe.Addr == "" {
			t.Errorf("probe summary incomplete: %+v", sr.Probe)
		}
		if sr.Probe.Packets != 10 {
			t.Errorf("session %s recorded %d packets, want 10", sr.Probe.Session, sr.Probe.Packets)
		}
		causes[sr.Probe.EndCause]++
	}
	if causes[EndBye] != 2 {
		t.Errorf("end causes = %v, want 2 byes", causes)
	}
}

// TestEvictionSpoolsSummary: a TTL eviction still produces a spool
// record — crashed clients do not lose their measurements.
func TestEvictionSpoolsSummary(t *testing.T) {
	sink := &memSink{}
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 4, SessionTTL: 40 * time.Millisecond, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	conn, reply, ok := dialHello(t, srv.Addr().String(), 5)
	defer conn.Close()
	if !ok || reply.Type != TypeHi {
		t.Fatal("admission failed")
	}
	// The sweep counts an eviction before it spools the record, so wait
	// for the record itself.
	deadline := time.Now().Add(2 * time.Second)
	for sink.causes()[EndEvicted] == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Stats.Evicted.Value() == 0 {
		t.Fatal("session never evicted")
	}
	if causes := sink.causes(); causes[EndEvicted] != 1 {
		t.Fatalf("spooled causes = %v, want 1 evicted", causes)
	}
}

// TestSpoolErrorCounted: a failing sink increments SpoolErrors instead
// of crashing the data path.
type failSink struct{}

func (failSink) Append(v any) error { return io.ErrClosedPipe }

func TestSpoolErrorCounted(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 4, SessionTTL: time.Hour, Sink: failSink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	conn, reply, ok := dialHello(t, srv.Addr().String(), 6)
	defer conn.Close()
	if !ok || reply.Type != TypeHi {
		t.Fatal("admission failed")
	}
	buf := make([]byte, HeaderSize)
	bye := Header{Type: TypeBye, Session: 6}
	bye.Encode(buf)
	conn.Write(buf)
	deadline := time.Now().Add(time.Second)
	for srv.Stats.SpoolErrors.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats.SpoolErrors.Value(); got != 1 {
		t.Errorf("SpoolErrors = %d, want 1", got)
	}
	if got := srv.ActiveSessions(); got != 0 {
		t.Errorf("failed spool left the session in the table (active = %d)", got)
	}
}

// TestSessionRecordPassesAnalysisFilters: a finalized session record
// run through the real analyzer ends up a candidate flow, not filtered
// out as short/app-limited/cellular.
func TestSessionRecordPassesAnalysisFilters(t *testing.T) {
	se := &session{id: 42, addr: "127.0.0.1:1", start: 0, snapAt: 0}
	// 3.5s of packets at ~1ms queueing delay.
	for i := 0; i < 35; i++ {
		now := time.Duration(i) * 100 * time.Millisecond
		se.noteData(now, 1200, now.Nanoseconds()-int64(time.Millisecond), 500*time.Millisecond)
	}
	rec := se.record(3500*time.Millisecond, time.Unix(1700000000, 0), EndBye)

	a, err := mlab.AnalyzeStream(&mlab.SliceSource{Recs: []mlab.Record{rec.Record}}, mlab.AnalysisConfig{},
		mlab.StreamOptions{Workers: 1, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != 1 {
		t.Fatalf("analysis produced %d results, want 1", len(a.Results))
	}
	switch cat := a.Results[0].Category; cat {
	case mlab.CatStable, mlab.CatLevelShift:
		// candidate flow: reached change-point detection
	default:
		t.Fatalf("probe session filtered out of the analysis as %q", cat)
	}
}
