package mlab

import (
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/stats"
)

// StreamOptions tunes AnalyzeStream.
type StreamOptions struct {
	// Workers is the analysis fan-out (<= 0 means GOMAXPROCS). The
	// aggregate outcome is byte-identical for every worker count.
	Workers int
	// KeepResults retains per-flow FlowResults (in input order), which
	// costs O(flows) memory. Leave unset for the aggregate mode, which
	// keeps only counts and 8 B per accepted shift magnitude.
	KeepResults bool
}

// partial is one worker's aggregate: pure sums, counts, and the
// accepted shift magnitudes (sorted on read by the merged CDF), so
// merging partials in any partition of the input yields the same
// Analysis.
type partial struct {
	total   int
	byCat   [numCats]int
	val     Validation
	shifts  []float64
	results []indexedResult
}

type indexedResult struct {
	idx int
	res FlowResult
}

// add folds one flow's verdict in. res's slices may alias a scratch;
// they are copied only when results are retained.
func (p *partial) add(res *FlowResult, idx int, opt StreamOptions) {
	p.total++
	p.byCat[catIndex(res.Category)]++
	if res.Category == CatLevelShift {
		p.shifts = append(p.shifts, res.ShiftMagnitudes...)
	}
	p.val.scoreTruth(res)
	if opt.KeepResults {
		kept := *res
		kept.Breakpoints = append([]int(nil), res.Breakpoints...)
		kept.ShiftMagnitudes = append([]float64(nil), res.ShiftMagnitudes...)
		p.results = append(p.results, indexedResult{idx: idx, res: kept})
	}
}

const numCats = 6

func catIndex(c Category) int {
	switch c {
	case CatShort:
		return 0
	case CatAppLimited:
		return 1
	case CatRWndLimited:
		return 2
	case CatCellular:
		return 3
	case CatStable:
		return 4
	default: // CatLevelShift
		return 5
	}
}

// AnalyzeStream runs the §3.1 pipeline over a record stream: it
// excludes short, application-limited, receiver-limited, and cellular
// flows, runs PELT on the remainder's throughput traces, and flags
// flows whose throughput level shifted. Records fan out to a bounded
// pool of workers that each carry a reusable scratch (zero
// steady-state allocations per flow), and the per-worker aggregates
// merge into one Analysis. Over a *RecordStream the calling goroutine
// only frames lines (gzip, line splitting, blank lines, the limits and
// record indices); decoding the JSON and analysing the record both run
// on the workers. Other sources produce whole records on the calling
// goroutine.
//
// Determinism: the merged aggregate — category counts, validation
// counts, and the shift-magnitude distribution (exact samples, sorted
// on read) — is a function of the record multiset only, and retained
// results are re-ordered to input order, so the Analysis (and anything
// rendered from it) is byte-identical for every worker count. On bad
// input the error is, for every worker count, the one a sequential
// Next loop meets first: the lowest-index failure, whether a decode
// error or a framing or limit error. Memory is 2 x workers pooled
// records and line buffers (each line at most the stream's
// MaxRecordBytes) plus the aggregates; the dataset itself is never
// materialized. cfg carries no setting.
func AnalyzeStream(src RecordSource, cfg AnalysisConfig, opt StreamOptions) (*Analysis, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts, err := analyzeParallel(src, opt, workers)
	if err != nil {
		return nil, err
	}
	return mergePartials(parts, opt), nil
}

// poolItem is one in-flight record. When the source is a
// *RecordStream, line holds its framed JSON (a view of buf) and rec
// is decoded from it on a worker; otherwise line is nil and the
// source filled rec.
type poolItem struct {
	rec  Record
	buf  []byte
	line []byte
}

type analyzeJob struct {
	it  *poolItem
	idx int
}

// firstFailure keeps the lowest-index error the producer or a worker
// meets: the error a sequential Next loop would return.
type firstFailure struct {
	mu  sync.Mutex
	idx int
	err error
}

func (f *firstFailure) set(idx int, err error) {
	f.mu.Lock()
	if f.err == nil || idx < f.idx {
		f.idx, f.err = idx, err
	}
	f.mu.Unlock()
}

func (f *firstFailure) failed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err != nil
}

func analyzeParallel(src RecordSource, opt StreamOptions, workers int) ([]*partial, error) {
	// The item pool bounds read-but-unprocessed records: the producer
	// recycles items the workers hand back, so steady state reuses the
	// same 2 x workers records and line buffers.
	poolSize := workers * 2
	free := make(chan *poolItem, poolSize)
	for i := 0; i < poolSize; i++ {
		free <- new(poolItem)
	}
	work := make(chan analyzeJob, workers)
	var fail firstFailure

	parts := make([]*partial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		p := new(partial)
		parts[w] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for j := range work {
				var err error
				if j.it.line != nil {
					err = decodeRecord(j.it.line, &j.it.rec, j.idx)
				}
				if err != nil {
					fail.set(j.idx, err)
				} else {
					res := analyzeInto(&j.it.rec, &sc)
					p.add(&res, j.idx, opt)
				}
				free <- j.it
			}
		}()
	}

	// A RecordStream's indices continue from records already read.
	rs, framed := src.(*RecordStream)
	idx := 0
	if framed {
		idx = rs.n
	}
	// Every record below a failure has already been handed out, so
	// stopping at the first one leaves the workers to find any earlier.
	for ; !fail.failed(); idx++ {
		it := <-free
		var err error
		if !framed {
			err = src.Next(&it.rec)
		} else if it.line, err = rs.frame(&it.buf); err == nil {
			rs.n++
		}
		if err != nil {
			if err != io.EOF {
				fail.set(idx, err)
			}
			break
		}
		work <- analyzeJob{it: it, idx: idx}
	}
	close(work)
	wg.Wait()
	if fail.err != nil && framed {
		// Leave the stream as the sequential loop would have.
		rs.n, rs.failed = fail.idx, true
	}
	return parts, fail.err
}

func mergePartials(parts []*partial, opt StreamOptions) *Analysis {
	a := &Analysis{ByCat: make(map[Category]int), ShiftCDF: stats.NewCDF(nil)}
	order := CategoryOrder()
	nResults := 0
	for _, p := range parts {
		a.Total += p.total
		for i, n := range p.byCat {
			if n > 0 {
				a.ByCat[order[i]] += n
			}
		}
		a.val.merge(p.val)
		for _, m := range p.shifts {
			a.ShiftCDF.Add(m)
		}
		nResults += len(p.results)
	}
	if opt.KeepResults && nResults > 0 {
		indexed := make([]indexedResult, 0, nResults)
		for _, p := range parts {
			indexed = append(indexed, p.results...)
		}
		sort.Slice(indexed, func(i, j int) bool { return indexed[i].idx < indexed[j].idx })
		a.Results = make([]FlowResult, len(indexed))
		for i := range indexed {
			a.Results[i] = indexed[i].res
		}
	}
	return a
}
