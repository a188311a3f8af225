package main

// ccac hunt drives the adversarial scenario search: a genetic
// algorithm over fault-profile + cross-traffic genomes, maximizing a
// chosen pathology objective through the scenario runner.
//
//	ccac hunt <objective> [-budget N] [-pop N]
//	          [-workers N] [-cache DIR]
//	          [-random N] [-out DIR] [-corpus DIR] [-fuzz-seeds DIR] [-json]
//
// The hunt attacks the huntcell path (16 Mbit/s, 30 ms, one BDP of
// droptail, a Reno victim) from seed 1 and is deterministic: any worker
// count, cache-cold or cache-warm, produces a byte-identical result
// record. -out writes the worst scenario's spec and golden trace;
// -random runs an undirected baseline of N random genomes for
// comparison; -corpus packages the best genome as a replayable corpus
// entry; -fuzz-seeds additionally exports it as fuzz-target seeds.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/hunt"
	"repro/internal/scenario"
)

func huntUsage(w io.Writer) {
	fmt.Fprintln(w, "usage: ccac hunt <objective> [flags]")
	fmt.Fprintln(w, "objectives:")
	for _, o := range hunt.Objectives() {
		fmt.Fprintf(w, "  %-14s %s\n", o.Name, o.Desc)
	}
}

type huntOpts struct {
	budget, pop, workers, random           int
	cacheDir, outDir, corpusDir, fuzzSeeds string
	asJSON                                 bool
}

// huntSeed is the seed every CLI hunt derives from.
const huntSeed = 1

func huntFlags() (*flag.FlagSet, *huntOpts) {
	o := &huntOpts{}
	fs := flag.NewFlagSet("ccac hunt", flag.ExitOnError)
	fs.IntVar(&o.budget, "budget", 200, "genome evaluation budget")
	fs.IntVar(&o.pop, "pop", 24, "GA population size")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&o.cacheDir, "cache", "", "content-addressed result cache directory")
	fs.IntVar(&o.random, "random", 0, "also evaluate N random genomes as an undirected baseline")
	fs.StringVar(&o.outDir, "out", "", "write the worst scenario's spec + golden trace under this directory")
	fs.StringVar(&o.corpusDir, "corpus", "", "package the best genome as a corpus entry under this directory")
	fs.StringVar(&o.fuzzSeeds, "fuzz-seeds", "", "also export the corpus entry as fuzz seeds under this repo root (needs -corpus)")
	fs.BoolVar(&o.asJSON, "json", false, "print the canonical hunt result record instead of the summary")
	fs.Usage = func() {
		huntUsage(fs.Output())
		fs.PrintDefaults()
	}
	return fs, o
}

func cmdHunt(args []string) {
	fs, o := huntFlags()
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		huntUsage(os.Stderr)
		os.Exit(2)
	}
	obj, err := hunt.LookupObjective(args[0])
	fail(err)
	fs.Parse(args[1:])
	if o.fuzzSeeds != "" && o.corpusDir == "" {
		fail(fmt.Errorf("hunt: -fuzz-seeds needs -corpus"))
	}

	runner := newRunner(o.workers, o.cacheDir, "")
	cfg := hunt.Config{
		Objective: obj,
		Budget:    o.budget,
		Pop:       o.pop,
		Seed:      huntSeed,
		Runner:    runner,
	}
	if !o.asJSON {
		cfg.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "ccac: "+format+"\n", a...)
		}
	}

	ctx := signalContext()
	start := time.Now()
	res, err := hunt.Run(ctx, cfg)
	fail(err)
	if o.random > 0 {
		res.Random, err = hunt.RandomBaseline(ctx, cfg, o.random)
		fail(err)
	}
	elapsed := time.Since(start)

	if o.outDir != "" {
		specPath, tracePath, err := hunt.WriteArtifacts(ctx, o.outDir, res)
		fail(err)
		fmt.Fprintf(os.Stderr, "ccac: hunt artifacts:\n  %s\n  %s\n", specPath, tracePath)
	}
	if o.corpusDir != "" {
		name := fmt.Sprintf("%s-%s", res.Objective, res.BestHash[:12])
		entry, err := hunt.NewEntry(ctx, runner, res, name)
		fail(err)
		path, err := hunt.SaveEntry(o.corpusDir, entry)
		fail(err)
		fmt.Fprintf(os.Stderr, "ccac: hunt corpus entry: %s (score %.4f, %s)\n", path, entry.Score, entry.Class)
		if o.fuzzSeeds != "" {
			paths, err := hunt.WriteFuzzSeeds(o.fuzzSeeds, entry)
			fail(err)
			for _, p := range paths {
				fmt.Fprintf(os.Stderr, "ccac: hunt fuzz seed: %s\n", p)
			}
		}
	}

	if o.asJSON {
		b, err := scenario.CanonicalJSON(res)
		fail(err)
		fmt.Println(string(b))
		return
	}
	fmt.Printf("hunt %s (seed %d): best score %.4f after %d evaluations (%v)\n",
		res.Objective, res.Seed, res.BestScore, res.Evaluations, elapsed.Round(time.Millisecond))
	fmt.Printf("  worst spec %s\n", res.BestHash)
	for _, g := range res.History {
		fmt.Printf("  gen %3d  best %.4f  mean %.4f\n", g.Gen, g.Best, g.Mean)
	}
	if res.Random != nil {
		verdict := "hunt wins"
		if res.BestScore <= res.Random.Best {
			verdict = "random wins"
		}
		fmt.Printf("  random baseline: best %.4f mean %.4f over %d samples (%s)\n",
			res.Random.Best, res.Random.Mean, res.Random.N, verdict)
	}
}
