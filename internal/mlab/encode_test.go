package mlab

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// TestGenerateJSONLDigest pins the generated dataset's bytes. The
// digests were taken when encoding/json wrote every line, so a writer
// change that moves one byte of the dataset mlabanalyze, the ledger
// and CI's mlabgen byte-diff read fails here. The -gzip stream is
// pinned after gunzipping: the compressed bytes are compress/gzip's,
// not the writer's.
func TestGenerateJSONLDigest(t *testing.T) {
	const (
		singleStream = "99975f8592882506506f6b01b9152da39adc78b68853e35c609b7e0842170085"
		sharded      = "81260a0cc138dfa843a383ec6fb5c54365ba546ca1dc8a752183392bf5cb3413"
	)
	for _, c := range []struct {
		name     string
		cfg      GeneratorConfig
		workers  int
		compress bool
		want     string
	}{
		{"single-stream", GeneratorConfig{Flows: 500, Seed: 1}, 1, false, singleStream},
		{"single-stream-gzip", GeneratorConfig{Flows: 500, Seed: 1}, 1, true, singleStream},
		{"shard-size-256-w1", GeneratorConfig{Flows: 600, Seed: 1, ShardSize: 256}, 1, false, sharded},
		{"shard-size-256-w2", GeneratorConfig{Flows: 600, Seed: 1, ShardSize: 256}, 2, false, sharded},
		{"shard-size-256-w2-gzip", GeneratorConfig{Flows: 600, Seed: 1, ShardSize: 256}, 2, true, sharded},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := GenerateJSONL(&buf, c.cfg, c.workers, c.compress); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			if c.compress {
				gz, err := gzip.NewReader(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if data, err = io.ReadAll(gz); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("dataset sha256 %s (%d bytes), want %s", got, len(data), c.want)
			}
		})
	}
}

// TestAppendRecordTakesGeneratedData requires appendRecord itself to
// write every record the generator makes, single-stream and sharded. A
// record that quietly fell back to encoding/json would be written with
// the same bytes, about three times slower, and no digest would notice.
func TestAppendRecordTakesGeneratedData(t *testing.T) {
	for _, cfg := range []GeneratorConfig{{Flows: 500, Seed: 1}, {Flows: 600, Seed: 1, ShardSize: 256}} {
		src := NewGenSource(cfg)
		var rec Record
		var line []byte
		for i := 0; ; i++ {
			if err := src.Next(&rec); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
			var ok bool
			if line, ok = appendRecord(line[:0], &rec); !ok {
				t.Fatalf("shard size %d, record %d: appendRecord declined a generated record", cfg.ShardSize, i)
			}
		}
	}
}
