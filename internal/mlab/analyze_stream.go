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
// flows whose throughput level shifted. The source is decoded once,
// records fan out to a bounded pool of workers that each carry a
// reusable scratch (zero steady-state allocations per flow), and the
// per-worker aggregates merge into one Analysis.
//
// Determinism: the merged aggregate — category counts, validation
// counts, and the shift-magnitude distribution (exact samples, sorted
// on read) — is a function of the record multiset only, and retained
// results are re-ordered to input order, so the Analysis (and anything
// rendered from it) is byte-identical for every worker count. Memory
// is O(workers x flow size) plus the aggregates; the dataset itself is
// never materialized.
func AnalyzeStream(src RecordSource, cfg AnalysisConfig, opt StreamOptions) (*Analysis, error) {
	cfg = cfg.norm()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts, err := analyzeParallel(src, cfg, opt, workers)
	if err != nil {
		return nil, err
	}
	return mergePartials(parts, cfg, opt), nil
}

type analyzeJob struct {
	rec *Record
	idx int
}

func analyzeParallel(src RecordSource, cfg AnalysisConfig, opt StreamOptions, workers int) ([]*partial, error) {
	// The record pool bounds decoded-but-unprocessed records: the
	// producer recycles records the workers hand back, so steady-state
	// decoding reuses the same ~2x-workers buffers.
	poolSize := workers * 2
	free := make(chan *Record, poolSize)
	for i := 0; i < poolSize; i++ {
		free <- new(Record)
	}
	work := make(chan analyzeJob, workers)

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
				res := analyzeInto(j.rec, cfg, &sc)
				p.add(&res, j.idx, opt)
				free <- j.rec
			}
		}()
	}

	var srcErr error
	idx := 0
	for {
		rec := <-free
		if err := src.Next(rec); err != nil {
			if err != io.EOF {
				srcErr = err
			}
			break
		}
		work <- analyzeJob{rec: rec, idx: idx}
		idx++
	}
	close(work)
	wg.Wait()
	return parts, srcErr
}

func mergePartials(parts []*partial, cfg AnalysisConfig, opt StreamOptions) *Analysis {
	a := &Analysis{ByCat: make(map[Category]int), ShiftCDF: stats.NewCDF(nil), cfg: cfg}
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
