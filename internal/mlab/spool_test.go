package mlab_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/mlab"
	"repro/internal/probe"
	"repro/internal/probe/spool"
)

// TestScannerAcceptsSpoolLines: mlabanalyze reads probed's spool
// directly, and each spool line is a probe.SessionRecord, a record's
// keys followed by a "probe" object. The scanner must take those lines
// itself, skipping the "probe" value, and decode them as encoding/json
// does; a fallback would cost every spool line a scan and a
// reflective decode.
func TestScannerAcceptsSpoolLines(t *testing.T) {
	var gen bytes.Buffer
	if _, err := mlab.GenerateJSONL(&gen, mlab.GeneratorConfig{Flows: 40, Seed: 5}, 1, false); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := spool.Open(spool.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(gen.Bytes(), []byte("\n")), []byte("\n")) {
		var rec mlab.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			rec.TruthLabel = "" // probed writes none
		}
		sr := probe.SessionRecord{Record: rec, Probe: probe.SessionSummary{
			Session: fmt.Sprintf("%016x", i), Addr: "[::1]:4471", Packets: int64(i), Bytes: int64(1200 * i),
			EndCause: probe.EndBye, DelayMeanMs: 1.25, DelayMaxMs: 7,
		}}
		if err := w.Append(sr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := spool.Files(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("spool files %v, %v", files, err)
	}
	n := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
			if !bytes.Contains(line, []byte(`"probe":{`)) {
				t.Fatalf("spool line %d has no probe object: %.200s", n, line)
			}
			var got mlab.Record
			if !mlab.ScanRecord(line, &got) {
				t.Fatalf("spool line %d: the scanner declined it: %.200s", n, line)
			}
			var want mlab.Record
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spool line %d: scanned %+v, encoding/json %+v", n, got, want)
			}
			n++
		}
	}
	if n != 40 {
		t.Fatalf("read %d spool lines, want 40", n)
	}
}
