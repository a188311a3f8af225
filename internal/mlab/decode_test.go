package mlab

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tcpinfo"
)

// generatedLines returns the JSONL lines of a generated dataset.
func generatedLines(t testing.TB, cfg GeneratorConfig, workers int) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := GenerateJSONL(&buf, cfg, workers, false); err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
}

// TestScannerAcceptsGeneratedData requires the hand scanner itself to
// take every line the generator writes, single-stream and sharded, and
// to decode it as encoding/json does. A line that quietly fell back to
// encoding/json would decode correctly, about five times slower, and
// no golden would notice.
func TestScannerAcceptsGeneratedData(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     GeneratorConfig
		workers int
	}{
		{"single-stream", GeneratorConfig{Flows: 500, Seed: 1}, 1},
		{"shard-size-256", GeneratorConfig{Flows: 600, Seed: 1, ShardSize: 256}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var rec Record
			labels := map[Label]int{}
			for i, line := range generatedLines(t, c.cfg, c.workers) {
				rec.reset()
				if !scanRecord(line, &rec) {
					t.Fatalf("record %d: the scanner declined a generated line: %.200s", i, line)
				}
				var want Record
				if err := json.Unmarshal(line, &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rec, want) {
					t.Fatalf("record %d: scanned %+v, encoding/json %+v", i, rec, want)
				}
				labels[rec.TruthLabel]++
			}
			if len(labels) != len(knownLabels) {
				t.Fatalf("dataset holds labels %v, want all %d", labels, len(knownLabels))
			}
		})
	}
}

// TestScannerScope pins which lines the scanner takes itself and which
// it leaves to encoding/json. Either way decodeRecord's result is
// encoding/json's (FuzzDecodeRecord holds it to that); this test keeps
// the writer's shapes on the fast path.
func TestScannerScope(t *testing.T) {
	accepted := []string{
		`{}`,
		` {"snapshots" : [ {"srtt":2 , "at":1} ] ,"id":"a","duration":-0}` + "\t\r\n",
		`{"mean_throughput_bps":1.5e-3,"truth_label":"steady","access":"wifi","start":"2023-06-01T00:00:00Z"}`,
		`{"id":"a","id":"b","snapshots":[{"at":1}],"snapshots":[],"snapshots":[{"cwnd":2}]}`,
		`{"access":"dialup","truth_label":"mystery"}`,
		`{"extra":{"a":[1,-2.5e3,true,false,null,"s",{},[]]},"id":"a"}`,
		`{"snapshots":[{"at":1,"rtt_var":{"deep":[[[]]]}}],"probe":{"session":"2a","addr":"[::1]:1"}}`,
	}
	declined := []string{
		`{"ID":"a"}`,
		`{"Id":"a"}`,
		`{"id":"é"}`,
		`{"id":null}`,
		`{"snapshots":null}`,
		`{"snapshots":[null]}`,
		`{"duration":1.0}`,
		`{"duration":1e3}`,
		`{"duration":01}`,
		`{"mean_throughput_bps":1e400}`,
		`{"start":"yesterday"}`,
		`{"id":"a"}x`,
		`{"id":"a",}`,
		`{"Probe":{},"SNAPSHOTS":[]}`,
		`{"snapshots":[{"Throughput_Bps":1}]}`,
		`{"extra":"\n"}`,
		`{"extra":"é"}`,
		`{"extra":tru}`,
		`{"extra":nul}`,
		`{"extra":01}`,
		`{"extra":[1,]}`,
		`{"extra":{"a" 1}}`,
		`{"extra":{1:1}}`,
		`{"extra":` + strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1) + `}`,
		`{"extra":}`,
		`{"extra":[}`,
		`[]`,
		``,
	}
	for _, line := range accepted {
		var rec Record
		if !scanRecord([]byte(line), &rec) {
			t.Errorf("declined %s", line)
		}
	}
	for _, line := range declined {
		var rec Record
		if scanRecord([]byte(line), &rec) {
			t.Errorf("accepted %s", line)
		}
	}
}

// TestScannerKeys holds the scanner's key lists to the json tags of
// Record and tcpinfo.Snapshot: a field the lists missed would have its
// key skipped as unknown instead of decoded.
func TestScannerKeys(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeOf(Record{}), recordKeys},
		{reflect.TypeOf(tcpinfo.Snapshot{}), snapshotKeys},
	} {
		var tags []string
		for i := 0; i < c.typ.NumField(); i++ {
			tags = append(tags, strings.Split(c.typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%s: json tags %q, scanner keys %q", c.typ, tags, c.keys)
		}
	}
}

// TestDecodeRecordAllocs: a warmed record decodes a generated line
// with one allocation, its ID.
func TestDecodeRecordAllocs(t *testing.T) {
	lines := generatedLines(t, GeneratorConfig{Flows: 20, Seed: 3}, 1)
	var rec Record
	for i, line := range lines {
		if err := decodeRecord(line, &rec, i); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := decodeRecord(lines[i%len(lines)], &rec, i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Errorf("decodeRecord allocates %.1f objects per warmed line, want <= 1", allocs)
	}
}
