// Command ccac is the unified entrypoint for every experiment in the
// repro: the paper's figures, the ablations, the oracle and TSLP
// studies, and ad-hoc contention duels, all described by declarative
// scenario specs and executed through the internal/scenario framework.
//
// Usage:
//
//	ccac list
//	ccac run <experiment> [-seed N] [-duration 30s] [-rtt 100ms]
//	         [-queue fq] [-buffer 2] [-ccas reno,bbr] [-phases reno,cbr]
//	         [-faults wifi-bursty] [-trials N] [-flows N]
//	         [-fluid-above N] [-phase 45s] [-json]
//	         [-trace run.jsonl] [-trace-sample N] [-metrics-out metrics.jsonl]
//	ccac sweep [-workers N] [-cache DIR] [-out results.json]
//	           [-progress] [-progress-jsonl events.jsonl] [-flight DIR]
//	           [-admin ADDR] <grid.json|->
//	ccac census <gen|run|merge> [flags]
//	ccac hunt <objective> [flags]
//
// `run` executes one experiment from its registered defaults plus any
// explicitly set flags and prints its table (or, with -json, the
// canonical result record). `sweep` expands a grid file's cross
// product into specs and executes them across a worker pool with an
// optional content-addressed result cache; its output is a canonical
// JSON array, byte-identical between sequential and parallel execution
// of the same grid. `census`
// samples, executes, classifies, and aggregates duel cells over a
// parameterized population model, single-process or sharded across
// processes (see cmd/ccac/census.go and docs/CENSUS.md). `hunt` searches
// fault and cross-traffic genomes for the scenario that maximizes a
// pathology objective (see cmd/ccac/hunt.go and docs/HUNTING.md).
//
// Long sweeps are observable while they run: -progress renders a live
// one-line status on stderr, -progress-jsonl streams one
// run_start/run_finish event pair per run plus periodic aggregates
// and a closing sweep_summary, -admin serves /metrics (OpenMetrics),
// /timeseries (recent history rings), /healthz, expvar, and pprof for
// the duration of the sweep, and -flight attaches a bounded flight
// recorder to every run, dumping the last trace events of any failed
// or panicking run (or, on SIGQUIT, of every in-flight run) as a
// replayable JSONL post-mortem under the given directory. A sweep
// with failed runs exits 1 and reports the failure count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		cmdList(os.Stdout)
	case "run":
		cmdRun(os.Args[2:])
	case "sweep":
		cmdSweep(os.Args[2:])
	case "census":
		cmdCensus(os.Args[2:])
	case "hunt":
		cmdHunt(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "ccac: unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage:")
	fmt.Fprintln(w, "  ccac list                         list experiments and fault profiles")
	fmt.Fprintln(w, "  ccac run <experiment> [flags]     run one experiment, print its table")
	fmt.Fprintln(w, "  ccac sweep [flags] <grid.json|->  expand a grid and sweep it")
	fmt.Fprintln(w, "  ccac census <gen|run|merge>       population-scale contention census")
	fmt.Fprintln(w, "  ccac hunt <objective> [flags]     adversarial scenario search")
	fmt.Fprintln(w, "run 'ccac run -h', 'ccac sweep -h', 'ccac census -h', or 'ccac hunt -h' for flags")
}

func cmdList(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	for _, name := range scenario.Names() {
		exp, err := scenario.Lookup(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %-10s %s\n", name, exp.Description)
	}
	fmt.Fprintln(w, "\nfault profiles (for -faults / fault_profile / grid fault_profiles):")
	for _, name := range faults.Names() {
		fmt.Fprintf(w, "  %-16s %s\n", name, faults.Describe(name))
	}
}

// specFlags declares the shared spec-shaping flags on fs and returns a
// closure that overlays the explicitly set ones onto a spec.
func specFlags(fs *flag.FlagSet) func(*scenario.Spec) {
	seed := fs.Int64("seed", 0, "workload random seed")
	faultProfile := fs.String("faults", "",
		"impair the bottleneck with a named fault profile ("+strings.Join(faults.Names(), ", ")+")")
	duration := fs.Duration("duration", 0, "scenario duration (0 = experiment default)")
	rtt := fs.Duration("rtt", 0, "base round-trip time")
	queue := fs.String("queue", "", "bottleneck queue discipline")
	buffer := fs.Float64("buffer", 0, "bottleneck buffer in BDPs")
	ccas := fs.String("ccas", "", "comma-separated CCA list")
	phases := fs.String("phases", "", "comma-separated phase list (fig3)")
	phase := fs.Duration("phase", 0, "per-phase duration (fig3)")
	trials := fs.Int("trials", 0, "randomized trial count (oracle)")
	flows := fs.Int("flows", 0, "flow count (subpkt) or dataset size (fig2)")
	fluidAbove := fs.Int("fluid-above", 0,
		"model background users with index >= N as the fluid aggregate (manyflow; 0 = all packet-level)")

	return func(sp *scenario.Spec) {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed":
				sp.Seed = *seed
			case "faults":
				sp.FaultProfile = *faultProfile
			case "duration":
				sp.DurationS = duration.Seconds()
			case "rtt":
				sp.RTTMs = float64(*rtt) / float64(time.Millisecond)
			case "queue":
				sp.Queue = *queue
			case "buffer":
				// encoding/json, and so Spec.Hash, has no NaN or Inf.
				if math.IsNaN(*buffer) || math.IsInf(*buffer, 0) {
					fail(fmt.Errorf("-buffer %v: not a finite number", *buffer))
				}
				sp.BufferBDP = *buffer
			case "ccas":
				sp.CCAs = splitList(*ccas)
			case "phases":
				sp.Phases = splitList(*phases)
			case "phase":
				sp.PhaseDurationS = phase.Seconds()
			case "trials":
				sp.Trials = *trials
			case "flows":
				sp.Flows = *flows
			case "fluid-above":
				sp.FluidAbove = *fluidAbove
			}
		})
	}
}

type runOpts struct {
	apply                           func(*scenario.Spec)
	specPath, tracePath, metricsOut string
	traceSample                     int
	asJSON                          bool
}

func runFlags() (*flag.FlagSet, *runOpts) {
	fs := flag.NewFlagSet("ccac run", flag.ExitOnError)
	o := &runOpts{apply: specFlags(fs)}
	fs.StringVar(&o.specPath, "spec", "",
		"replay a full spec JSON file ('-' for stdin) instead of experiment defaults; other flags still override")
	fs.BoolVar(&o.asJSON, "json", false, "print the canonical result record instead of the table")
	fs.StringVar(&o.tracePath, "trace", "", "write a JSONL run log (manifest + events + summary) to this file")
	fs.IntVar(&o.traceSample, "trace-sample", 32, "keep 1-in-N bulk events in the trace (control events always kept)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write a final metrics snapshot to this file (JSONL)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ccac run <experiment> [flags]")
		fmt.Fprintln(fs.Output(), "       ccac run -spec <spec.json|-> [flags]")
		fmt.Fprintln(fs.Output(), "experiments: "+strings.Join(scenario.Names(), ", "))
		fs.PrintDefaults()
	}
	return fs, o
}

func cmdRun(args []string) {
	fs, o := runFlags()
	name := ""
	rest := args
	if len(args) >= 1 && !strings.HasPrefix(args[0], "-") {
		name = args[0]
		rest = args[1:]
	}
	fs.Parse(rest)

	var sp scenario.Spec
	if o.specPath != "" {
		sp = loadSpec(o.specPath)
		if name != "" && name != sp.Experiment {
			fail(fmt.Errorf("run: experiment %q conflicts with spec file's %q", name, sp.Experiment))
		}
		name = sp.Experiment
	}
	if name == "" {
		fs.Usage()
		os.Exit(2)
	}
	exp, err := scenario.Lookup(name)
	fail(err)
	if o.specPath == "" {
		sp = exp.Defaults
	}
	o.apply(&sp)

	sc, finish, err := buildScope(sp, o.tracePath, o.traceSample, o.metricsOut)
	fail(err)

	r := &scenario.Runner{NewScope: func(scenario.Spec) *obs.Scope { return sc }}
	res := r.Run(signalContext(), sp)
	if res.Err != "" {
		fail(errors.New(res.Err))
	}
	fail(finish(res.Value()))

	if o.asJSON {
		b, err := scenario.CanonicalJSON(res)
		fail(err)
		fmt.Println(string(b))
		return
	}
	if exp.Table != nil {
		exp.Table(os.Stdout, res.Value())
	}
}

// buildScope assembles a run's observability scope from the -trace /
// -metrics-out flags and returns a finish function that closes the run
// log (with the result's summary when it provides one) and writes the
// metrics snapshot.
func buildScope(sp scenario.Spec, tracePath string, traceSample int, metricsOut string) (*obs.Scope, func(any) error, error) {
	if tracePath == "" && metricsOut == "" {
		return nil, func(any) error { return nil }, nil
	}
	sc := obs.NewScope()
	var runLog *obs.RunLogWriter
	var logF *os.File
	if tracePath != "" {
		var err error
		logF, err = os.Create(tracePath)
		if err != nil {
			return nil, nil, err
		}
		runLog, err = obs.NewRunLogWriter(logF, sp.Manifest())
		if err != nil {
			logF.Close()
			return nil, nil, err
		}
		tr := runLog.Tracer()
		tr.SetSampling(traceSample)
		sc.Tracer = tr
	}
	finish := func(res any) error {
		if runLog != nil {
			var sum obs.Summary
			if s, ok := res.(interface{ Summary() obs.Summary }); ok {
				sum = s.Summary()
			}
			if err := runLog.Close(sum); err != nil {
				return err
			}
			if err := logF.Close(); err != nil {
				return err
			}
		}
		if metricsOut != "" {
			return sc.Reg.WriteSnapshotFile(metricsOut)
		}
		return nil
	}
	return sc, finish, nil
}

type sweepOpts struct {
	workers                             int
	cacheDir, out                       string
	progress                            bool
	progressJSONL, flightDir, adminAddr string
}

func sweepFlags() (*flag.FlagSet, *sweepOpts) {
	o := &sweepOpts{}
	fs := flag.NewFlagSet("ccac sweep", flag.ExitOnError)
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&o.cacheDir, "cache", "", "content-addressed result cache directory (reused across sweeps)")
	fs.StringVar(&o.out, "out", "", "write the canonical JSON result array here (default stdout)")
	fs.BoolVar(&o.progress, "progress", false, "render a live one-line sweep status to stderr")
	fs.StringVar(&o.progressJSONL, "progress-jsonl", "",
		"stream sweep progress events (run_start/run_finish/progress/sweep_summary) as JSONL to this file")
	fs.StringVar(&o.flightDir, "flight", "",
		"attach a flight recorder to every run; dump failed/panicked runs' last trace events to this directory")
	fs.StringVar(&o.adminAddr, "admin", "",
		"serve /metrics, /timeseries, /healthz, expvar, and pprof on this address for the duration of the sweep")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ccac sweep [flags] <grid.json|->")
		fs.PrintDefaults()
	}
	return fs, o
}

func cmdSweep(args []string) {
	fs, o := sweepFlags()
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	gridBytes, err := readInput(fs.Arg(0))
	fail(err)
	grid, err := scenario.ParseGrid(gridBytes)
	fail(err)
	specs, err := grid.Expand()
	fail(err)

	runner := newRunner(o.workers, o.cacheDir, o.flightDir)
	rep, closeRep := attachReporter(runner, o.progress, o.progressJSONL)
	if o.adminAddr != "" {
		reg := obs.NewRegistry()
		rep.Reg = reg
		rec := timeseries.New(timeseries.Config{Registry: reg, Runtime: true})
		recCtx, recStop := context.WithCancel(context.Background())
		defer recStop()
		go rec.Run(recCtx)
		adm, err := obs.ServeAdmin(o.adminAddr, obs.AdminMux(map[string]http.Handler{
			"/metrics":    obs.MetricsHandler(reg),
			"/timeseries": rec.Handler(),
		}))
		fail(err)
		defer adm.Close()
		fmt.Fprintf(os.Stderr, "ccac: sweep admin on http://%v\n", adm.Addr())
	}
	if o.flightDir != "" {
		// SIGQUIT dumps every in-flight run's flight recorder — the
		// "what is this stalled sweep doing" lever — and keeps going.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			for range quit {
				for _, p := range runner.DumpActiveFlights() {
					fmt.Fprintf(os.Stderr, "ccac: flight dump %s\n", p)
				}
			}
		}()
	}

	results, sweepErr := runner.Sweep(signalContext(), specs)

	b, err := scenario.CanonicalJSON(results)
	fail(err)
	b = append(b, '\n')
	summaryW := os.Stderr
	if o.out != "" {
		fail(os.WriteFile(o.out, b, 0o644))
		summaryW = os.Stdout
	} else {
		os.Stdout.Write(b)
	}
	// The results are already out; a broken telemetry stream is
	// reported, not fatal.
	if err := closeRep(); err != nil {
		fmt.Fprintln(os.Stderr, "ccac: progress stream:", err)
	}
	rep.Summarize(summaryW)
	if sweepErr != nil {
		fmt.Fprintln(os.Stderr, "ccac: sweep:", sweepErr)
		os.Exit(1)
	}
	if failed := rep.Failed(); failed > 0 {
		fmt.Fprintf(os.Stderr, "ccac: sweep: %d of %d runs failed\n", failed, len(results))
		os.Exit(1)
	}
}

// loadSpec reads a replayable spec file (a hunt artifact, a sweep
// grid's expansion, or hand-written JSON). Unknown fields are errors:
// a typo in a replay must not silently change the scenario.
func loadSpec(path string) scenario.Spec {
	b, err := readInput(path)
	fail(err)
	sp, err := scenario.ParseSpec(b)
	if err != nil {
		fail(fmt.Errorf("run: spec %s: %w", path, err))
	}
	return sp
}

// readInput reads a grid, spec or model file; "-" is stdin.
func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// newRunner builds the runner sweep, census run and hunt execute their
// specs through; an empty cacheDir or flightDir leaves that feature off.
func newRunner(workers int, cacheDir, flightDir string) *scenario.Runner {
	runner := &scenario.Runner{Workers: workers, FlightDir: flightDir}
	if cacheDir != "" {
		var err error
		runner.Cache, err = scenario.NewCache(cacheDir)
		fail(err)
	}
	return runner
}

// attachReporter installs a progress reporter on runner. It always
// observes (its Summarize is the exit summary); the live stderr line
// and the JSONL event file are opt-in. closeFn ends the stream and
// closes the file, returning the first error either hit.
func attachReporter(runner *scenario.Runner, tty bool, jsonlPath string) (rep *scenario.SweepReporter, closeFn func() error) {
	rep = &scenario.SweepReporter{AggregateEvery: time.Second}
	runner.ProgressFunc = rep.Func()
	if tty {
		rep.TTY = os.Stderr
	}
	if jsonlPath == "" {
		return rep, rep.Close
	}
	f, err := os.Create(jsonlPath)
	fail(err)
	rep.JSONL = f
	return rep, func() error {
		err := rep.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
}

// signalContext cancels on SIGINT/SIGTERM so a sweep stops dispatching
// promptly and still writes the partial result array.
func signalContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccac:", err)
		os.Exit(1)
	}
}
