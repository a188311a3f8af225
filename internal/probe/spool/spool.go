// Package spool is probed's durable results store: an append-only,
// size-rotated, crash-safe JSONL spool. Each line is one per-session
// summary in the internal/mlab record schema (a strict superset: the
// extra "probe" object is ignored by the mlab decoder), so spool files
// feed mlabanalyze directly — `cat spool/*.jsonl | mlabanalyze` is the
// fleet-node → analysis pipeline with no translation step.
//
// Durability model: records are encoded to a single buffer and written
// with one write call, so a crash can tear at most the final line.
// Rotation seals the active file with an fsync + atomic rename (then
// syncs the directory), and Open recovers a torn tail by truncating
// the active file to its longest valid JSONL prefix before appending
// resumes.
package spool

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Config parameterizes a spool writer.
type Config struct {
	// Dir is the spool directory (created if absent).
	Dir string
	// MaxFileBytes rotates the active file once it reaches this size
	// (default 64 MiB).
	MaxFileBytes int64
	// FsyncEvery fsyncs the active file every N appends; 0 syncs only
	// on rotation and Close (the default: a crash loses at most the
	// records since the last rotation), 1 syncs every record.
	FsyncEvery int
}

// prefix names the spool's files: "sessions.active.jsonl" receives
// appends; sealed files are "sessions-00000001.jsonl" and up.
const prefix = "sessions"

func (c Config) norm() Config {
	if c.MaxFileBytes <= 0 {
		c.MaxFileBytes = 64 << 20
	}
	return c
}

// Stats describe a writer's lifetime activity.
type Stats struct {
	// Appended counts records written.
	Appended int64
	// Rotations counts sealed files produced.
	Rotations int64
	// RecoveredDropBytes is how much torn tail Open truncated away.
	RecoveredDropBytes int64
}

// Writer is a concurrent-safe spool appender.
type Writer struct {
	cfg Config

	mu     sync.Mutex
	f      *os.File
	size   int64
	seq    int // index of the next sealed file
	unsync int // appends since the last fsync
	stats  Stats
	closed bool

	enc bytes.Buffer // encode scratch, reused under mu
}

// Open creates (or reopens) a spool in cfg.Dir, recovering any torn
// tail left by a crash and resuming the sealed-file sequence.
func Open(cfg Config) (*Writer, error) {
	cfg = cfg.norm()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("spool: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	w := &Writer{cfg: cfg}
	sealed, err := sealedFiles(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, f := range sealed {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(f), prefix+"-%d.jsonl", &n); err == nil && n >= w.seq {
			w.seq = n + 1
		}
	}
	if w.seq == 0 {
		w.seq = 1
	}
	active := w.activePath()
	dropped, err := recoverTail(active)
	if err != nil {
		return nil, err
	}
	w.stats.RecoveredDropBytes = dropped
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("spool: %w", err)
	}
	w.f, w.size = f, st.Size()
	return w, nil
}

func (w *Writer) activePath() string {
	return filepath.Join(w.cfg.Dir, prefix+".active.jsonl")
}

// Append encodes v as one JSONL line and writes it atomically with
// respect to crashes (single write call), rotating first if the active
// file is full.
func (w *Writer) Append(v any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("spool: append after Close")
	}
	w.enc.Reset()
	je := json.NewEncoder(&w.enc)
	if err := je.Encode(v); err != nil {
		return fmt.Errorf("spool: encoding record: %w", err)
	}
	if w.size > 0 && w.size+int64(w.enc.Len()) > w.cfg.MaxFileBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := w.f.Write(w.enc.Bytes())
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	w.stats.Appended++
	w.unsync++
	if w.cfg.FsyncEvery > 0 && w.unsync >= w.cfg.FsyncEvery {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("spool: %w", err)
		}
		w.unsync = 0
	}
	return nil
}

// rotateLocked seals the active file: fsync, close, atomic rename to
// the next sealed name, directory sync, fresh active file.
func (w *Writer) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("spool: rotate sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("spool: rotate close: %w", err)
	}
	sealed := filepath.Join(w.cfg.Dir, fmt.Sprintf("%s-%08d.jsonl", prefix, w.seq))
	if err := os.Rename(w.activePath(), sealed); err != nil {
		return fmt.Errorf("spool: rotate rename: %w", err)
	}
	w.seq++
	f, err := os.OpenFile(w.activePath(), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("spool: rotate reopen: %w", err)
	}
	syncDir(w.cfg.Dir)
	w.f, w.size, w.unsync = f, 0, 0
	w.stats.Rotations++
	return nil
}

// Sync flushes the active file to stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.unsync = 0
	return w.f.Sync()
}

// Close fsyncs and closes the active file. Records already appended
// remain readable in place; a reopened spool resumes appending to the
// same active file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("spool: %w", err)
	}
	return w.f.Close()
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Files returns the spool's data files in append order: sealed files
// by sequence number, then the active file if present — the order to
// concatenate for analysis.
func Files(dir string) ([]string, error) {
	out, err := sealedFiles(dir)
	if err != nil {
		return nil, err
	}
	active := filepath.Join(dir, prefix+".active.jsonl")
	if st, err := os.Stat(active); err == nil && st.Size() > 0 {
		out = append(out, active)
	}
	return out, nil
}

func sealedFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("spool: %w", err)
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, prefix+"-") && strings.HasSuffix(name, ".jsonl") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out) // zero-padded sequence numbers sort lexically
	return out, nil
}

// recoverTail truncates path to its longest valid JSONL prefix,
// returning how many bytes were dropped. A missing file is fine.
func recoverTail(path string) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("spool: recover: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("spool: recover: %w", err)
	}
	var good int64
	sc := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := sc.ReadBytes('\n')
		if err != nil {
			break // EOF mid-line: torn tail past `good`
		}
		if !json.Valid(line) {
			break // corruption: keep the valid prefix only
		}
		good += int64(len(line))
	}
	if good == st.Size() {
		return 0, nil
	}
	if err := f.Truncate(good); err != nil {
		return 0, fmt.Errorf("spool: truncating torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("spool: recover sync: %w", err)
	}
	return st.Size() - good, nil
}

// syncDir best-effort-fsyncs a directory so renames and creates are
// durable; filesystems that refuse directory syncs are tolerated.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
