package main

// ccac census drives a population-scale contention census: a model
// file describes the distribution of paths (CCA mix, queue deployment,
// rate/RTT/buffer distributions, fault prevalence), and the subcommands
// sample, execute, classify, and aggregate duel cells over it.
//
//	ccac census gen   [-model FILE|-] [-json]
//	ccac census run   [-model FILE|-] [-n N] [-shard k/M]
//	                  [-workers N] [-cache DIR] [-out FILE]
//	ccac census merge [-out FILE] <partial.json ...>
//
// `run` with -shard k/M executes one index slice of the population and
// writes a mergeable partial; without it, the whole census runs in one
// process and emits the final report; merging every shard's partial
// yields a report byte-identical to the single-process run. Spec i of a
// model is a pure function of (model hash, i), so shards regenerate
// their slices independently — nothing is ever materialized or shipped
// but the aggregates.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/scenario"
)

func cmdCensus(args []string) {
	if len(args) < 1 {
		censusUsage(os.Stderr)
		os.Exit(2)
	}
	switch args[0] {
	case "gen":
		cmdCensusGen(args[1:])
	case "run":
		cmdCensusRun(args[1:])
	case "merge":
		cmdCensusMerge(args[1:])
	case "-h", "-help", "--help", "help":
		censusUsage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "ccac census: unknown subcommand %q\n\n", args[0])
		censusUsage(os.Stderr)
		os.Exit(2)
	}
}

func censusUsage(w io.Writer) {
	fmt.Fprintln(w, "usage:")
	fmt.Fprintln(w, "  ccac census gen [-model FILE|-] [-json]   print a model's expansion stats")
	fmt.Fprintln(w, "  ccac census run [-model FILE|-] [-n N] [-shard k/M]")
	fmt.Fprintln(w, "                  [-workers N] [-cache DIR] [-out FILE]  run a census (or one shard of it)")
	fmt.Fprintln(w, "  ccac census merge [-out FILE] <partial.json ...>       fold shard partials into the report")
	fmt.Fprintln(w, "run 'ccac census <sub> -h' for flags; no -model uses the built-in default population")
}

// censusModelFlags declares the shared model-shaping flags and returns
// a closure that loads, overrides, and validates the model.
func censusModelFlags(fs *flag.FlagSet) func() census.Model {
	modelPath := fs.String("model", "", "population model JSON file ('-' for stdin; empty = built-in default)")
	n := fs.Int("n", 0, "override the model's population size")
	return func() census.Model {
		var m census.Model
		if *modelPath == "" {
			m = census.DefaultModel()
		} else {
			b, err := readInput(*modelPath)
			fail(err)
			m, err = census.ParseModel(b)
			fail(err)
		}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				m.N = *n
			}
		})
		fail(m.Validate())
		return m
	}
}

type censusGenOpts struct {
	model  func() census.Model
	asJSON bool
}

func censusGenFlags() (*flag.FlagSet, *censusGenOpts) {
	fs := flag.NewFlagSet("ccac census gen", flag.ExitOnError)
	o := &censusGenOpts{model: censusModelFlags(fs)}
	fs.BoolVar(&o.asJSON, "json", false, "print the canonical expansion record instead of a summary")
	return fs, o
}

func cmdCensusGen(args []string) {
	fs, o := censusGenFlags()
	fs.Parse(args)
	m := o.model()
	st := m.Expansion()
	if o.asJSON {
		b, err := scenario.CanonicalJSON(st)
		fail(err)
		fmt.Println(string(b))
		return
	}
	fmt.Printf("census model %q\n", m.Name)
	fmt.Printf("  hash    %s\n", st.ModelHash)
	fmt.Printf("  n       %d specs\n", st.N)
	fmt.Printf("  cell    duel, %.3gs simulated each\n", m.DurationS)
	fmt.Printf("  strata  %d (%s)\n", len(st.Strata), strings.Join(st.Strata, ", "))
	for i, sp := range st.SampleSpecs {
		fmt.Printf("  spec %-3d %s vs %s  queue=%s faults=%s rate=%s rtt=%.1fms buf=%.2fbdp\n",
			i, sp.CCAs[0], sp.CCAs[1], sp.Queue, sp.FaultProfile,
			core.FmtBps(sp.RateBps), sp.RTTMs, sp.BufferBDP)
	}
}

type censusRunOpts struct {
	model                func() census.Model
	shard, cacheDir, out string
	workers              int
}

func censusRunFlags() (*flag.FlagSet, *censusRunOpts) {
	fs := flag.NewFlagSet("ccac census run", flag.ExitOnError)
	o := &censusRunOpts{model: censusModelFlags(fs)}
	fs.StringVar(&o.shard, "shard", "", "run only index slice k/M of the population and emit a mergeable partial")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&o.cacheDir, "cache", "", "content-addressed result cache directory (shared across shards)")
	fs.StringVar(&o.out, "out", "", "write the partial/report here (default stdout)")
	return fs, o
}

func cmdCensusRun(args []string) {
	fs, o := censusRunFlags()
	fs.Parse(args)
	m := o.model()

	lo, hi := 0, m.N
	if o.shard != "" {
		var k, total int
		if _, err := fmt.Sscanf(o.shard, "%d/%d", &k, &total); err != nil {
			fail(fmt.Errorf("census: -shard wants k/M, got %q", o.shard))
		}
		var err error
		lo, hi, err = census.ShardRange(m.N, k, total)
		fail(err)
	}

	runner := newRunner(o.workers, o.cacheDir, "")

	start := time.Now()
	p, err := census.RunShard(signalContext(), runner, m, lo, hi)
	fail(err)

	if o.shard != "" {
		b, err := p.Encode()
		fail(err)
		writeOut(o.out, b)
		fmt.Fprintf(os.Stderr, "ccac: census shard %s: %d specs [%d, %d) in %v\n",
			o.shard, hi-lo, lo, hi, time.Since(start).Round(time.Millisecond))
		return
	}
	report := census.ReportOf(m, p.Agg)
	b, err := report.Encode()
	fail(err)
	writeOut(o.out, b)
	report.WriteTable(os.Stderr)
	fmt.Fprintf(os.Stderr, "ccac: census: %d specs in %v\n", m.N, time.Since(start).Round(time.Millisecond))
}

type censusMergeOpts struct {
	out   string
	quiet bool
}

func censusMergeFlags() (*flag.FlagSet, *censusMergeOpts) {
	fs := flag.NewFlagSet("ccac census merge", flag.ExitOnError)
	o := &censusMergeOpts{}
	fs.StringVar(&o.out, "out", "", "write the report here (default stdout)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress the human-readable table on stderr")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ccac census merge [-out FILE] <partial.json ...>")
		fs.PrintDefaults()
	}
	return fs, o
}

func cmdCensusMerge(args []string) {
	fs, o := censusMergeFlags()
	fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		os.Exit(2)
	}
	parts := make([]census.Partial, 0, fs.NArg())
	for _, path := range fs.Args() {
		b, err := os.ReadFile(path)
		fail(err)
		p, err := census.ParsePartial(b)
		if err != nil {
			fail(fmt.Errorf("%s: %w", path, err))
		}
		parts = append(parts, p)
	}
	report, err := census.Merge(parts)
	fail(err)
	b, err := report.Encode()
	fail(err)
	writeOut(o.out, b)
	if !o.quiet {
		report.WriteTable(os.Stderr)
	}
}

func writeOut(path string, b []byte) {
	if path == "" {
		os.Stdout.Write(b)
		return
	}
	fail(os.WriteFile(path, b, 0o644))
}
