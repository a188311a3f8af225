package mlab

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
)

// RecordSource yields NDT records one at a time. Next decodes (or
// generates) the next record into rec, reusing rec's backing storage
// where possible, and returns io.EOF at the end of the stream. The
// record passed to Next is owned by the caller until the same rec is
// passed again; sources must not retain it.
type RecordSource interface {
	Next(rec *Record) error
}

// Default guards for untrusted datasets. A real NDT record is a few
// hundred snapshots; 16 MiB of JSON per record is already two orders
// of magnitude past anything plausible.
const (
	DefaultMaxRecordBytes = 16 << 20
)

// StreamLimits guards a stream against pathological inputs.
type StreamLimits struct {
	// MaxRecordBytes caps one JSONL line, not counting its "\n" or
	// "\r\n" terminator (default DefaultMaxRecordBytes; negative
	// disables the cap).
	MaxRecordBytes int
	// MaxRecords caps the record count (0 or negative = unlimited).
	MaxRecords int
}

func (l StreamLimits) norm() StreamLimits {
	if l.MaxRecordBytes == 0 {
		l.MaxRecordBytes = DefaultMaxRecordBytes
	}
	return l
}

var gzipMagic = []byte{0x1f, 0x8b}

// RecordStream decodes a JSONL dataset incrementally: one record in
// memory at a time, with per-record buffer reuse, transparent gzip
// autodetection (for .jsonl.gz datasets), and input guards.
// AnalyzeStream splits it: the reading goroutine only frames lines
// (frame), and the analysis workers decode them (decodeRecord).
type RecordStream struct {
	br     *bufio.Reader
	gz     *gzip.Reader
	lim    StreamLimits
	n      int
	line   []byte
	failed bool
}

// NewRecordStream wraps r. The first bytes are sniffed for the gzip
// magic, so callers can hand over either plain or gzipped JSONL
// without declaring which.
func NewRecordStream(r io.Reader, lim StreamLimits) (*RecordStream, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("mlab: reading stream head: %w", err)
	}
	s := &RecordStream{br: br, lim: lim.norm()}
	if bytes.Equal(head, gzipMagic) {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("mlab: opening gzip stream: %w", err)
		}
		s.gz = gz
		s.br = bufio.NewReaderSize(gz, 1<<16)
	}
	return s, nil
}

// Close releases the gzip decoder, if any. The underlying reader is
// the caller's to close.
func (s *RecordStream) Close() error {
	if s.gz != nil {
		return s.gz.Close()
	}
	return nil
}

// Next decodes the next record into rec, reusing rec's snapshot
// storage. It returns io.EOF at a clean end of input; any other error
// (malformed JSON, a truncated final record, an oversized line, or a
// record-count limit) is terminal and carries the failing record's
// index.
func (s *RecordStream) Next(rec *Record) error {
	line, err := s.frame(&s.line)
	if err != nil {
		return err
	}
	if err := decodeRecord(line, rec, s.n); err != nil {
		s.failed = true
		return err
	}
	s.n++
	return nil
}

// frame reads record s.n's line into *buf, reusing its backing array,
// and returns the line without surrounding whitespace (a view of
// *buf). It applies every guard but does not decode the line or
// advance s.n. io.EOF means a clean end of input; any other error is
// terminal.
func (s *RecordStream) frame(buf *[]byte) ([]byte, error) {
	if s.failed {
		return nil, fmt.Errorf("mlab: stream already failed at record %d", s.n)
	}
	line, err := s.nextLine(buf)
	if err == nil && s.lim.MaxRecords > 0 && s.n >= s.lim.MaxRecords {
		err = fmt.Errorf("mlab: record %d exceeds the %d-record limit", s.n, s.lim.MaxRecords)
	}
	if err != nil && err != io.EOF {
		s.failed = true
	}
	return line, err
}

// nextLine reads the next non-blank line into *buf. io.EOF means a
// clean end of input.
func (s *RecordStream) nextLine(buf *[]byte) ([]byte, error) {
	for {
		b := (*buf)[:0]
		for {
			chunk, err := s.br.ReadSlice('\n')
			b = append(b, chunk...)
			*buf = b
			if s.lim.MaxRecordBytes > 0 && unterminatedLen(b) > s.lim.MaxRecordBytes {
				return nil, fmt.Errorf("mlab: record %d exceeds the %d-byte line limit", s.n, s.lim.MaxRecordBytes)
			}
			if err == nil || err == io.EOF {
				break
			}
			if err != bufio.ErrBufferFull {
				return nil, fmt.Errorf("mlab: reading record %d: %w", s.n, err)
			}
		}
		if trimmed := bytes.TrimSpace(b); len(trimmed) > 0 {
			return trimmed, nil
		}
		// A blank line: skip it, unless it was the end of input.
		if !bytes.HasSuffix(b, []byte("\n")) {
			return nil, io.EOF
		}
	}
}

// unterminatedLen is len(b) without a trailing "\n" or "\r\n", the
// length MaxRecordBytes caps. A '\r' that ends a partial read also
// goes uncounted (it may be half of a "\r\n"); if it is not, the next
// read counts it, so the length only grows as a line is read.
func unterminatedLen(b []byte) int {
	n := len(b)
	if n > 0 && b[n-1] == '\n' {
		n--
	}
	if n > 0 && b[n-1] == '\r' {
		n--
	}
	return n
}

// decodeRecord decodes one JSONL line into rec, reusing rec's snapshot
// storage; idx is the record's index for the error. RecordStream.Next
// and AnalyzeStream's workers both decode through it. The hand scanner
// (scanRecord) decodes every line JSONLWriter writes; a line it
// declines goes to encoding/json, which alone decides what any other
// line means and what its error says.
func decodeRecord(line []byte, rec *Record, idx int) error {
	rec.reset()
	if scanRecord(line, rec) {
		return nil
	}
	rec.reset()
	if err := json.Unmarshal(line, rec); err != nil {
		return fmt.Errorf("mlab: decoding record %d: %w", idx, err)
	}
	return nil
}

// reset clears rec for reuse, retaining the snapshot backing array so
// steady-state decoding does not reallocate it. The whole array is
// zeroed: encoding/json decodes into reused elements in place, so a
// field a line omits would otherwise keep an earlier record's value.
func (r *Record) reset() {
	snaps := r.Snapshots[:cap(r.Snapshots)]
	clear(snaps)
	*r = Record{Snapshots: snaps[:0]}
}

// SliceSource adapts an in-memory dataset to the RecordSource
// interface. Records share the slice's snapshot storage (read-only).
type SliceSource struct {
	Recs []Record
	i    int
}

// Next copies the next record header into rec (snapshots are shared,
// not copied) or returns io.EOF.
func (s *SliceSource) Next(rec *Record) error {
	if s.i >= len(s.Recs) {
		return io.EOF
	}
	*rec = s.Recs[s.i]
	s.i++
	return nil
}

// JSONLWriter encodes records one per line with optional gzip
// compression, buffering the underlying writer.
type JSONLWriter struct {
	bw   *bufio.Writer
	gz   *gzip.Writer
	w    io.Writer // gz when compressing, else bw
	line []byte    // the line being encoded, reused across records
	n    int
}

// NewJSONLWriter wraps w; when compress is set the output is gzipped.
func NewJSONLWriter(w io.Writer, compress bool) *JSONLWriter {
	jw := &JSONLWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	jw.w = jw.bw
	if compress {
		jw.gz = gzip.NewWriter(jw.bw)
		jw.w = jw.gz
	}
	return jw
}

// Write encodes one record.
func (jw *JSONLWriter) Write(rec *Record) error {
	line, err := encodeRecord(jw.line[:0], rec)
	if err == nil {
		jw.line = line
		_, err = jw.w.Write(line)
	}
	if err != nil {
		return fmt.Errorf("mlab: encoding record %d: %w", jw.n, err)
	}
	jw.n++
	return nil
}

// encodeRecord appends rec's JSONL line to b. appendRecord writes
// every record it can; a record it declines goes to encoding/json,
// which alone decides what any other record's line is and what its
// error says.
func encodeRecord(b []byte, rec *Record) ([]byte, error) {
	if line, ok := appendRecord(b, rec); ok {
		return line, nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return b, err
	}
	return append(append(b, line...), '\n'), nil
}

// WriteRaw copies pre-encoded JSONL bytes through (the parallel
// generator encodes shards off the writer goroutine).
func (jw *JSONLWriter) WriteRaw(b []byte, records int) error {
	if _, err := jw.w.Write(b); err != nil {
		return fmt.Errorf("mlab: writing record %d: %w", jw.n, err)
	}
	jw.n += records
	return nil
}

// Close flushes all layers. It must be called for the output to be
// complete; the underlying writer is the caller's to close.
func (jw *JSONLWriter) Close() error {
	if jw.gz != nil {
		if err := jw.gz.Close(); err != nil {
			return fmt.Errorf("mlab: closing gzip stream: %w", err)
		}
	}
	if err := jw.bw.Flush(); err != nil {
		return fmt.Errorf("mlab: flushing output: %w", err)
	}
	return nil
}
