package spool

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mlab"
)

func testRecord(i int) mlab.Record {
	return mlab.Record{
		ID:       fmt.Sprintf("probe-%016x", i),
		Duration: 3 * time.Second,
		Access:   mlab.AccessEthernet,
	}
}

func readAll(t *testing.T, dir string) []mlab.Record {
	t.Helper()
	files, err := Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []mlab.Record
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		src, err := mlab.NewRecordStream(f, mlab.StreamLimits{})
		if err != nil {
			f.Close()
			t.Fatal(err)
		}
		for {
			var rec mlab.Record
			if err := src.Next(&rec); err != nil {
				if err == io.EOF {
					break
				}
				t.Fatalf("%s: %v", path, err)
			}
			out = append(out, rec)
		}
		f.Close()
	}
	return out
}

// TestRotationKeepsEveryRecordInOrder: a tiny MaxFileBytes forces many
// rotations; Files must return sealed files then the active file, and
// concatenating them must yield every record in append order, each
// parseable by the exact reader mlabanalyze uses.
func TestRotationKeepsEveryRecordInOrder(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, MaxFileBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Appended != n {
		t.Fatalf("Appended = %d, want %d", st.Appended, n)
	}
	if st.Rotations == 0 {
		t.Fatal("no rotations with a 256-byte file cap")
	}
	files, err := Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != int(st.Rotations)+1 {
		t.Fatalf("Files() = %d paths, want %d sealed + 1 active", len(files), st.Rotations)
	}
	for _, f := range files[:len(files)-1] {
		if !strings.HasSuffix(f, ".jsonl") || strings.Contains(f, ".active.") {
			t.Fatalf("sealed file %q out of order with the active file", f)
		}
	}
	recs := readAll(t, dir)
	if len(recs) != n {
		t.Fatalf("read %d records back, want %d", len(recs), n)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("probe-%016x", i); r.ID != want {
			t.Fatalf("record %d = %q, want %q (append order lost)", i, r.ID, want)
		}
	}
}

// TestTornTailRecovery: a crash mid-write leaves a partial final line;
// Open must truncate it away, keep every complete record, and resume
// appending cleanly.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: a torn (newline-less, invalid) tail.
	active := filepath.Join(dir, "sessions.active.jsonl")
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"id":"probe-torn","durat`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Stats().RecoveredDropBytes; got != int64(len(torn)) {
		t.Fatalf("RecoveredDropBytes = %d, want %d", got, len(torn))
	}
	if err := w2.Append(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	recs := readAll(t, dir)
	if len(recs) != 4 {
		t.Fatalf("read %d records after recovery, want 4", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("probe-%016x", i); r.ID != want {
			t.Fatalf("record %d = %q, want %q", i, r.ID, want)
		}
	}
}

// TestCorruptLineRecovery: a newline-terminated but invalid JSON line
// (disk corruption) truncates from the corruption onward.
func TestCorruptLineRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	active := filepath.Join(dir, "sessions.active.jsonl")
	f, _ := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString("!!not json!!\n")
	f.Close()

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Stats().RecoveredDropBytes; got == 0 {
		t.Fatal("corrupt line not truncated")
	}
	if recs := readAll(t, dir); len(recs) != 1 {
		t.Fatalf("read %d records, want the 1 valid one", len(recs))
	}
}

// TestReopenResumesSequence: sealed-file numbering continues across
// reopen instead of overwriting earlier seals.
func TestReopenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 2; round++ {
		w, err := Open(Config{Dir: dir, MaxFileBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := w.Append(testRecord(round*10 + i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recs := readAll(t, dir)
	if len(recs) != 20 {
		t.Fatalf("read %d records across reopen, want 20", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("record %q appears twice: a seal was overwritten", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestFsyncEveryAndSync: the explicit durability knobs must not error
// on the happy path.
func TestFsyncEveryAndSync(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir(), FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if err := w.Append(testRecord(1)); err == nil {
		t.Fatal("Append after Close must fail")
	}
}

// TestAppendIsOneLinePerRecord: each record is exactly one
// newline-terminated JSON line (the crash-atomicity unit).
func TestAppendIsOneLinePerRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "sessions.active.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines for 5 records", len(lines))
	}
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("invalid JSON line %q", ln)
		}
	}
}
