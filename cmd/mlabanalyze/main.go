// Command mlabanalyze runs the paper's §3.1 passive analysis over an
// NDT JSONL dataset (from mlabgen or stdin): it excludes short,
// application-limited, receiver-limited, and cellular flows, then runs
// PELT change-point detection on the remainder's throughput traces to
// find flows whose allocation level shifted — the Figure 2 pipeline.
//
// The dataset streams through a worker pool one record at a time
// (gzip input is autodetected): the reading goroutine only splits the
// input into lines and applies -max-records/-max-record-bytes, and the
// workers decode each line and analyse it. Memory is bounded by
// 2 x -workers records and lines, never the dataset (the aggregate
// keeps counts and 8 B per accepted shift magnitude). The report, and
// on bad input the error, is byte-identical for every -workers count.
//
// Usage:
//
//	mlabanalyze [-workers 8] [-cdf] [dataset.jsonl[.gz]]
//	mlabgen | mlabanalyze
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/mlab"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlabanalyze:", err)
		os.Exit(1)
	}
}

func run() error {
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "analysis goroutines (output is identical for any count)")
	maxRecords := flag.Int("max-records", 0, "abort past this many records (0 = unlimited)")
	maxRecordBytes := flag.Int("max-record-bytes", mlab.DefaultMaxRecordBytes, "abort on a longer JSONL line (<0 = unlimited)")
	cdf := flag.Bool("cdf", false, "also print the shift-magnitude CDF as (value, fraction) rows")
	metricsOut := flag.String("metrics-out", "", "write pipeline stats to this file (JSONL)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	src, err := mlab.NewRecordStream(r, mlab.StreamLimits{
		MaxRecords:     *maxRecords,
		MaxRecordBytes: *maxRecordBytes,
	})
	if err != nil {
		return err
	}
	defer src.Close()

	res, err := core.AnalyzeFig2Stream(src, core.Fig2Config{Workers: *workers})
	if err != nil {
		return err
	}
	if err := res.WriteReport(os.Stdout); err != nil {
		return err
	}
	if *metricsOut != "" {
		reg := obs.NewRegistry()
		an := res.Analysis
		reg.Gauge("mlab.analysis.total").Set(float64(an.Total))
		byCat := reg.GaugeFamily("mlab.analysis.flows", "category")
		for cat, n := range an.ByCat {
			byCat.With(string(cat)).Set(float64(n))
		}
		v := res.Validation
		reg.Gauge("mlab.analysis.precision").Set(v.Precision())
		reg.Gauge("mlab.analysis.recall").Set(v.Recall())
		if err := reg.WriteSnapshotFile(*metricsOut); err != nil {
			return err
		}
	}
	if *cdf && res.Analysis.ShiftCDF.Len() > 0 {
		fmt.Println("\n# shift_magnitude cumulative_fraction")
		for _, pt := range res.Analysis.ShiftCDF.Points() {
			fmt.Printf("%.4f %.4f\n", pt[0], pt[1])
		}
	}
	return nil
}
