package mlab

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// GenStats summarizes a generated dataset.
type GenStats struct {
	// Records is the number of records written.
	Records int
	// ByLabel counts records per ground-truth label.
	ByLabel map[Label]int
}

func (s *GenStats) count(l Label) {
	s.Records++
	s.ByLabel[l]++
}

func (s *GenStats) merge(o GenStats) {
	s.Records += o.Records
	for l, n := range o.ByLabel {
		s.ByLabel[l] += n
	}
}

// GenerateJSONL streams cfg's synthetic dataset to w as JSONL
// (gzipped when compress is set) without ever materializing it: one
// record is in memory per worker. With cfg.ShardSize > 0 the shards
// are generated and JSON-encoded on `workers` goroutines and written
// back in shard order, so the bytes are identical for every worker
// count; otherwise (or with workers <= 1) generation is sequential
// and byte-identical to Generate + WriteJSONL.
func GenerateJSONL(w io.Writer, cfg GeneratorConfig, workers int, compress bool) (GenStats, error) {
	cfg = cfg.norm()
	stats := GenStats{ByLabel: make(map[Label]int)}
	jw := NewJSONLWriter(w, compress)
	if cfg.ShardSize <= 0 || workers <= 1 {
		src := NewGenSource(cfg)
		var rec Record
		for {
			if err := src.Next(&rec); err != nil {
				if err != io.EOF {
					return stats, err
				}
				break
			}
			if err := jw.Write(&rec); err != nil {
				return stats, err
			}
			stats.count(rec.TruthLabel)
		}
		return stats, jw.Close()
	}
	if err := generateSharded(jw, cfg, workers, &stats); err != nil {
		return stats, err
	}
	return stats, jw.Close()
}

// encShard is one shard's generated records, pre-encoded off the
// writer goroutine.
type encShard struct {
	idx   int
	buf   *bytes.Buffer
	stats GenStats
	err   error
}

func generateSharded(jw *JSONLWriter, cfg GeneratorConfig, workers int, stats *GenStats) error {
	nShards := (cfg.Flows + cfg.ShardSize - 1) / cfg.ShardSize
	if workers > nShards {
		workers = nShards
	}
	// inflight bounds encoded-but-unwritten shards (including any the
	// reordering writer is holding), keeping memory at
	// O(workers x shard bytes) regardless of dataset size.
	inflight := workers * 2
	sem := make(chan struct{}, inflight)
	jobs := make(chan int)
	out := make(chan encShard, inflight)
	pool := &sync.Pool{New: func() any { return new(bytes.Buffer) }}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec Record
			for idx := range jobs {
				out <- encodeShard(cfg, idx, &rec, pool)
			}
		}()
	}
	go func() {
		// Tokens are taken in shard order, so the shards holding them
		// are always a contiguous prefix of the unwritten ones — the
		// in-order writer below can never be starved of its next shard
		// by later ones exhausting the window.
		for idx := 0; idx < nShards; idx++ {
			sem <- struct{}{}
			jobs <- idx
		}
		close(jobs)
		wg.Wait()
		close(out)
	}()

	// Write shards back in order; out-of-order arrivals wait in
	// pending (bounded by inflight).
	pending := make(map[int]encShard, inflight)
	next := 0
	var firstErr error
	for sh := range out {
		pending[sh.idx] = sh
		for {
			sh, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr == nil {
				firstErr = sh.err
			}
			if firstErr == nil {
				if err := jw.WriteRaw(sh.buf.Bytes(), sh.stats.Records); err != nil {
					firstErr = err
				} else {
					stats.merge(sh.stats)
				}
			}
			sh.buf.Reset()
			pool.Put(sh.buf)
			<-sem
		}
	}
	return firstErr
}

// encodeShard generates shard idx and encodes it into a pooled buffer
// (each line appended in the buffer's spare capacity), reusing rec's
// storage across records.
func encodeShard(cfg GeneratorConfig, idx int, rec *Record, pool *sync.Pool) encShard {
	start := idx * cfg.ShardSize
	end := start + cfg.ShardSize
	if end > cfg.Flows {
		end = cfg.Flows
	}
	sh := encShard{
		idx:   idx,
		buf:   pool.Get().(*bytes.Buffer),
		stats: GenStats{ByLabel: make(map[Label]int)},
	}
	src := newShardSource(cfg, start, end)
	for {
		if err := src.Next(rec); err != nil {
			if err != io.EOF {
				sh.err = err
			}
			return sh
		}
		line, err := encodeRecord(sh.buf.AvailableBuffer(), rec)
		if err != nil {
			sh.err = fmt.Errorf("mlab: encoding record %d: %w", start+sh.stats.Records, err)
			return sh
		}
		sh.buf.Write(line)
		sh.stats.count(rec.TruthLabel)
	}
}
