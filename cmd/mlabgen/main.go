// Command mlabgen generates a synthetic M-Lab NDT dataset (JSONL on
// stdout or to a file) with the schema and behavioural mixture the
// paper's §3.1 analysis consumes. Ground-truth labels are retained so
// mlabanalyze can validate its classifications.
//
// The dataset streams to the output one record at a time, so any flow
// count runs in constant memory. With -shard-size the records are
// generated in independently seeded shards on -workers goroutines;
// sharded output is byte-identical for every worker count (but
// differs from the default single-stream sequence). Each record is
// written by a hand encoder that produces exactly the bytes
// encoding/json would, about twice as fast; a record it cannot write
// with certainty goes to encoding/json itself.
//
// Usage:
//
//	mlabgen [-flows 9984] [-seed 1] [-o dataset.jsonl] [-metrics-out m.jsonl]
//	mlabgen -flows 1000000 -shard-size 2048 -workers 8 -o big.jsonl.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/mlab"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlabgen:", err)
		os.Exit(1)
	}
}

func run() error {
	flows := flag.Int("flows", 9984, "number of flows (paper: 9,984)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "output file (default stdout; a .gz suffix implies -gzip)")
	shardSize := flag.Int("shard-size", 0, "records per independently-seeded shard (0 = historical single-stream sequence)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "generation goroutines (needs -shard-size; output is identical for any count)")
	compress := flag.Bool("gzip", false, "gzip the output")
	metricsOut := flag.String("metrics-out", "", "write generation stats to this file (JSONL)")
	flag.Parse()

	w := os.Stdout
	var toFile bool
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
		toFile = true
		if strings.HasSuffix(*out, ".gz") {
			*compress = true
		}
	}
	cfg := mlab.GeneratorConfig{Flows: *flows, Seed: *seed, ShardSize: *shardSize}
	stats, err := mlab.GenerateJSONL(w, cfg, *workers, *compress)
	if err != nil {
		return err
	}
	if toFile {
		fmt.Fprintf(os.Stderr, "mlabgen: wrote %d records to %s\n", stats.Records, *out)
	}
	if *metricsOut != "" {
		reg := obs.NewRegistry()
		reg.Gauge("mlab.gen.records").Set(float64(stats.Records))
		byLabel := reg.GaugeFamily("mlab.gen.label_records", "label")
		for label, n := range stats.ByLabel {
			byLabel.With(string(label)).Add(float64(n))
		}
		if err := reg.WriteSnapshotFile(*metricsOut); err != nil {
			return err
		}
	}
	return nil
}
