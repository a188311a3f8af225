package spool

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpoolReopen writes arbitrary bytes as the active file, then opens
// the spool, appends one record and closes it. Open must recover
// whatever it finds: the file left behind is the longest whole-line
// prefix of the input whose every line is valid JSON, followed by the
// appended record, and RecoveredDropBytes counts the bytes removed.
func FuzzSpoolReopen(f *testing.F) {
	line, err := json.Marshal(testRecord(1))
	if err != nil {
		f.Fatal(err)
	}
	line = append(line, '\n')
	f.Add([]byte{})
	f.Add(line)
	f.Add(append(append([]byte{}, line...), line[:len(line)/2]...))
	f.Add(append(append([]byte{}, line...), "!!not json!!\n"...))
	f.Add(append([]byte("\n"), line...))
	f.Add([]byte("1\n\"x\"\n[]\n{}\r\n null \n{"))
	f.Add(bytes.Repeat(line, 4)[:len(line)*4-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		active := filepath.Join(dir, prefix+".active.jsonl")
		if err := os.WriteFile(active, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		dropped := w.Stats().RecoveredDropBytes
		if err := w.Append(testRecord(2)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(active)
		if err != nil {
			t.Fatal(err)
		}

		// The longest prefix of whole lines, each valid JSON.
		keep := 0
		for rest := data; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 || !json.Valid(rest[:i+1]) {
				break
			}
			keep += i + 1
			rest = rest[i+1:]
		}
		want, err := json.Marshal(testRecord(2))
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(data[:keep:keep], want...), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("spool holds %q, want the %d-byte valid prefix and the record: %q", got, keep, want)
		}
		if dropped != int64(len(data)-keep) {
			t.Fatalf("RecoveredDropBytes = %d, removed %d", dropped, len(data)-keep)
		}
	})
}
