package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/cca"
	"repro/internal/census"
	"repro/internal/changepoint"
	"repro/internal/dsp"
	"repro/internal/hunt"
	"repro/internal/mlab"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/qdisc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Layer probes: small drivers over each layer's public API, from
// outside, at the operating point the workloads put the layer at — not
// the microbenchmarks'. Each runs for the probe duration and reports
// how many iterations that was.

// timing is a timeLoop outcome: nanoseconds per iteration and how many
// iterations that is the mean of.
type timing struct {
	ns    float64
	iters int
}

// timeLoop calls batch(n) with growing n until the elapsed total
// reaches dur.
func timeLoop(dur time.Duration, batch func(n int)) timing {
	n, total := 1, 0
	var elapsed time.Duration
	for {
		start := time.Now()
		batch(n)
		elapsed += time.Since(start)
		total += n
		if elapsed >= dur {
			return timing{float64(elapsed.Nanoseconds()) / float64(total), total}
		}
		// Double, but never past what the time left can hold.
		per := float64(elapsed) / float64(total)
		n *= 2
		if left := int(float64(dur-elapsed)/per) + 1; n > left {
			n = left
		}
	}
}

// stubExperiment is what the spine probe sweeps: an experiment that
// does nothing, so the time is the spine's own (dispatch, hash,
// canonical encode, ordered yield).
const stubExperiment = "ledger-stub"

func init() {
	scenario.Register(scenario.Experiment{
		Name:        stubExperiment,
		Description: "benchmark stub: returns at once, so a sweep of it times the sweep spine alone",
		Run: func(_ context.Context, sp scenario.Spec, _ *obs.Scope) (any, error) {
			return struct{ Seed int64 }{sp.Seed}, nil
		},
	})
}

// The paper's link (Figure 3; the Nimbus paper's canonical cell).
const (
	paperRateBps = 48e6
	paperOWD     = 50 * time.Millisecond
)

// flowSecond is a flow-second probe's outcome: wall per virtual second
// of one backlogged flow on the paper's link, and the work that second
// held, so the ledger can subtract the engine's and the link's part and
// keep the transport's own.
type flowSecond struct {
	timing
	events, packets, acks float64 // per virtual second
}

func probeFlowSecond(dur time.Duration, cc transport.CCA) flowSecond {
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "probe", paperRateBps, paperOWD, qdisc.NewDropTailBDP(paperRateBps, 2*paperOWD, 1))
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: paperOWD, CC: cc, Backlogged: true,
	})
	f.Start()
	eng.Run(5 * time.Second) // past slow start
	e0, p0, a0 := eng.Processed, link.Stats().SentPackets, f.Sender.BytesAcked()
	t := timeLoop(dur, func(n int) {
		for i := 0; i < n; i++ {
			eng.Run(eng.Now() + time.Second)
		}
	})
	k := float64(t.iters)
	return flowSecond{
		timing:  t,
		events:  float64(eng.Processed-e0) / k,
		packets: float64(link.Stats().SentPackets-p0) / k,
		acks:    float64(f.Sender.BytesAcked()-a0) / sim.MSS / k,
	}
}

// probeEngine times one event on an engine holding `resident` timers
// that re-arm across a ~50 ms horizon, as per-flow RTT timers do. One
// resident timer stays on the heap path; 4,096 engage the wheel.
func probeEngine(dur time.Duration, resident int) timing {
	eng := &sim.Engine{}
	k := 0
	var next func()
	next = func() {
		k++
		eng.Schedule(time.Duration(1+k%200)*250*time.Microsecond, next)
	}
	for i := 0; i < resident; i++ {
		eng.Schedule(time.Duration(1+i%200)*250*time.Microsecond, next)
	}
	return timeLoop(dur, func(n int) {
		for i := 0; i < n; i++ {
			eng.Step()
		}
	})
}

// probeLink times one pooled packet through the whole link pipeline
// (enqueue, dequeue, serialize, propagate, deliver, release) behind a
// DropTail queue: two engine events and one qdisc pair per packet.
func probeLink(dur time.Duration) timing {
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "probe", 1e12, time.Microsecond, qdisc.NewDropTail(1<<20))
	dest := sim.ReceiverFunc(func(p *sim.Packet) { p.Release() })
	path := []*sim.Link{link}
	// bursts of 32 keep the engine under its 64-event wheel threshold,
	// so the two events are priced by the sparse engine probe
	return timeLoop(dur, func(n int) {
		for sent := 0; sent < n; {
			for burst := 0; burst < 32 && sent < n; burst, sent = burst+1, sent+1 {
				p := eng.NewPacket()
				p.Size, p.Path, p.Dest = sim.MSS, path, dest
				sim.Inject(p)
			}
			for eng.Step() {
			}
		}
	})
}

// probeQdisc times one enqueue+dequeue pair with `classes` classes kept
// backlogged, so a scheduling discipline's scan crosses the whole
// population instead of cycling a handful of queues. step is the
// virtual time between dequeues (the link's serialization time).
func probeQdisc(dur time.Duration, q sim.Qdisc, classes int, step time.Duration) timing {
	var now time.Duration
	for c := 0; c < 2*classes; c++ {
		q.Enqueue(&sim.Packet{FlowID: c % classes, UserID: c % classes, Size: sim.MSS}, now)
	}
	p := &sim.Packet{Size: sim.MSS}
	i := 0
	return timeLoop(dur, func(n int) {
		for j := 0; j < n; j++ {
			p.FlowID, p.UserID = i%classes, i%classes
			i++
			now += step
			if !q.Enqueue(p, now) {
				continue // refused: the caller still owns p
			}
			if p, _ = q.Dequeue(now); p == nil {
				p = &sim.Packet{Size: sim.MSS}
			}
		}
	})
}

// probeUserIso sets the isolation qdisc up as the manyflow cell does
// for `users` subscribers: 2 Mbit/s of fair share each, plans capped at
// four times that, dequeues spaced by the link's serialization time.
func probeUserIso(dur time.Duration, users int) timing {
	linkBps := 2e6 * float64(users+2)
	planBps := 4 * linkBps / float64(users+2)
	step := time.Duration(float64(sim.MSS*8) / linkBps * float64(time.Second))
	return probeQdisc(dur, qdisc.NewUserIsolation(planBps, 16*sim.MSS, 64*sim.MSS), users, step)
}

// probeFlowSetup times what traffic.Churn pays per arrival: NewFlow's
// allocations, a fresh controller, and a ten-packet transfer to
// completion.
func probeFlowSetup(dur time.Duration) timing {
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "probe", 1e9, time.Millisecond, qdisc.NewDropTail(1<<20))
	path := []*sim.Link{link}
	id := 0
	return timeLoop(dur, func(n int) {
		for i := 0; i < n; i++ {
			id++
			done := false
			f := transport.NewFlow(eng, transport.FlowConfig{
				ID: id, UserID: 1, Path: path, ReturnDelay: time.Millisecond,
				CC: cca.NewRenoCC(), NoDeliverySeries: true,
			})
			f.Sender.OnComplete = func(time.Duration) { done = true }
			f.Sender.Supply(10 * sim.MSS)
			f.Start()
			for !done && eng.Step() {
			}
		}
	})
}

// probeSpec times one spec through a bare runner; the cell set-up
// probes hand it specs whose duration is cut to almost nothing.
func probeSpec(dur time.Duration, sp scenario.Spec) (timing, error) {
	var runErr error
	t := timeLoop(dur, func(n int) {
		for i := 0; i < n; i++ {
			if res := (&scenario.Runner{}).Run(context.Background(), sp); res.Err != "" {
				runErr = errors.New(res.Err)
			}
		}
	})
	return t, runErr
}

// stubSource yields n stub specs with distinct seeds.
type stubSource struct{ i, n int }

func (s *stubSource) Next() (scenario.Spec, bool, error) {
	if s.i >= s.n {
		return scenario.Spec{}, false, nil
	}
	s.i++
	return scenario.Spec{Experiment: stubExperiment, Seed: int64(s.i)}, true, nil
}

func (s *stubSource) Count() (int, bool) { return s.n - s.i, true }

// probeSpine times the sweep spine per spec: SweepStream over the stub
// experiment with the workloads' worker count.
func probeSpine(dur time.Duration) (timing, error) {
	var sweepErr error
	t := timeLoop(dur, func(n int) {
		r := &scenario.Runner{Workers: workers}
		err := r.SweepStream(context.Background(), &stubSource{n: n}, func(res scenario.RunResult) error {
			if res.Err != "" {
				return errors.New(res.Err)
			}
			return nil
		})
		if err != nil {
			sweepErr = err
		}
	})
	return t, sweepErr
}

// cacheEntries bounds the cache probe's files on disk.
const cacheEntries = 2048

// probeCache times Cache.Put of distinct specs carrying a real duel
// result, then Cache.Get of the same entries, against a directory under
// dir that is removed afterwards.
func probeCache(dur time.Duration, dir string, sp scenario.Spec, result []byte) (put, hit timing, err error) {
	tmp, err := os.MkdirTemp(dir, "cache-probe-")
	if err != nil {
		return put, hit, err
	}
	defer os.RemoveAll(tmp)
	cache, err := scenario.NewCache(tmp)
	if err != nil {
		return put, hit, err
	}
	specs := make([]scenario.Spec, cacheEntries)
	hashes := make([]string, cacheEntries)
	for i := range specs {
		specs[i] = sp
		specs[i].Seed = int64(i + 1)
		hashes[i] = specs[i].Hash()
	}
	i := 0
	put = timeLoop(dur, func(n int) {
		for j := 0; j < n; j++ {
			k := i % cacheEntries
			i++
			if perr := cache.Put(specs[k], hashes[k], result); perr != nil {
				err = perr
			}
		}
	})
	if err != nil {
		return put, hit, err
	}
	stored := min(put.iters, cacheEntries)
	i = 0
	hit = timeLoop(dur, func(n int) {
		for j := 0; j < n; j++ {
			if _, ok := cache.Get(hashes[i%stored]); !ok {
				err = fmt.Errorf("cache probe: stored entry %d missed", i%stored)
			}
			i++
		}
	})
	return put, hit, err
}

// probeSet is every layer probe's outcome: the metrics themselves and
// the flow-second details the ledger model needs.
type probeSet struct {
	metrics map[string]metric
	flows   map[string]flowSecond // "cubic", "reno", "bbr", "nimbus"
}

// set records a probe's timing under name, in unit: scale is how many
// nanoseconds one of that unit holds.
func (ps *probeSet) set(name, unit string, scale float64, t timing) {
	ps.metrics[name] = metric{Value: t.ns / scale, Unit: unit, N: t.iters}
}

func (ps *probeSet) value(name string) float64 { return ps.metrics[name].Value }

// runProbes runs every layer probe for dur each. The probes do not
// depend on the workload being traced: they describe the layers.
func runProbes(col *collector, o options, dur time.Duration) (*probeSet, error) {
	ps := &probeSet{metrics: map[string]metric{}, flows: map[string]flowSecond{}}
	timed := func(name string, f func()) {
		// start every probe from a collected heap, so none pays for the
		// garbage of the one before
		runtime.GC()
		id := col.begin("probe:" + name)
		f()
		col.end(id)
	}
	simple := func(name, unit string, scale float64, f func() timing) {
		timed(name, func() { ps.set(name, unit, scale, f()) })
	}

	// sim
	simple("sim.engine_sparse_ns", "ns", 1, func() timing { return probeEngine(dur, 1) })
	simple("sim.engine_dense_ns", "ns", 1, func() timing { return probeEngine(dur, 4096) })
	simple("sim.link_ns_per_pkt", "ns", 1, func() timing { return probeLink(dur) })

	// qdisc
	const buf = 1 << 20
	simple("qdisc.droptail_ns", "ns", 1, func() timing {
		return probeQdisc(dur, qdisc.NewDropTail(buf), 16, 250*time.Microsecond)
	})
	simple("qdisc.fq_ns", "ns", 1, func() timing {
		return probeQdisc(dur, qdisc.NewDRR(qdisc.ByFlow, sim.MSS, buf), 16, 250*time.Microsecond)
	})
	simple("qdisc.fq_codel_ns", "ns", 1, func() timing {
		return probeQdisc(dur, qdisc.NewFQCoDel(qdisc.ByFlow, buf), 16, 250*time.Microsecond)
	})
	simple("qdisc.useriso_ns_16u", "ns", 1, func() timing { return probeUserIso(dur, 16) })
	simple("qdisc.useriso_ns_2000u", "ns", 1, func() timing { return probeUserIso(dur, 2000) })

	// transport + cca, nimbus + dsp
	for _, name := range []string{"cubic", "reno", "bbr"} {
		cc, err := cca.New(name)
		if err != nil {
			return nil, err
		}
		timed("transport.flow_second_ms."+name, func() {
			fs := probeFlowSecond(dur, cc)
			ps.flows[name] = fs
			ps.set("transport.flow_second_ms."+name, "ms", 1e6, fs.timing)
		})
	}
	simple("transport.flow_setup_us", "us", 1e3, func() timing { return probeFlowSetup(dur) })
	timed("nimbus.flow_second_ms", func() {
		// the probe flow alone, configured as the fig3 cell configures it
		fs := probeFlowSecond(dur, nimbus.NewCCA(nimbus.Config{Mu: paperRateBps, PulseFreq: 2}))
		ps.flows["nimbus"] = fs
		ps.set("nimbus.flow_second_ms", "ms", 1e6, fs.timing)
	})
	window := make([]float64, nimbus.Config{}.Norm().WindowSamples)
	for i := range window {
		window[i] = float64(i % 50)
	}
	var fftErr error
	simple("dsp.fft_us", "us", 1e3, func() timing {
		return timeLoop(dur, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := dsp.FFTReal(window); err != nil {
					fftErr = err
				}
			}
		})
	})
	if fftErr != nil {
		return nil, fftErr
	}

	// core: each cell's set-up, from the workload's own spec with the
	// duration cut to almost nothing
	in, err := probeInputs(o)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"fig3", "manyflow", "duel", "huntcell"} {
		timed("core.setup_ms."+name, func() {
			var t timing
			t, err = probeSpec(dur, in.setup[name])
			ps.set("core.setup_ms."+name, "ms", 1e6, t)
		})
		if err != nil {
			return nil, fmt.Errorf("core.setup_ms.%s: %w", name, err)
		}
	}

	// scenario
	simple("scenario.hash_us", "us", 1e3, func() timing {
		return timeLoop(dur, func(n int) {
			for i := 0; i < n; i++ {
				in.duel.Hash()
			}
		})
	})
	timed("scenario.spine_us_per_spec", func() {
		var t timing
		t, err = probeSpine(dur)
		ps.set("scenario.spine_us_per_spec", "us", 1e3, t)
	})
	if err != nil {
		return nil, err
	}
	// a stored duel result for the cache and classify probes: one
	// virtual second of the census's first cell
	stored := in.duel
	stored.DurationS = 1
	res := (&scenario.Runner{}).Run(context.Background(), stored)
	if res.Err != "" {
		return nil, errors.New(res.Err)
	}
	timed("scenario.cache", func() {
		var put, hit timing
		put, hit, err = probeCache(dur, o.outDir, stored, res.Result)
		ps.set("scenario.cache_put_us", "us", 1e3, put)
		ps.set("scenario.cache_hit_us", "us", 1e3, hit)
	})
	if err != nil {
		return nil, err
	}

	// census
	simple("census.sample_us", "us", 1e3, func() timing {
		i := 0
		return timeLoop(dur, func(n int) {
			for j := 0; j < n; j++ {
				in.model.SpecAt(i)
				i++
			}
		})
	})
	simple("census.classify_us", "us", 1e3, func() timing {
		agg := census.NewAggregate()
		return timeLoop(dur, func(n int) {
			for j := 0; j < n; j++ {
				agg.Add(census.Classify(res))
			}
		})
	})

	// changepoint, stats: the detector as the mlab analysis calls it,
	// over the traces of a small generated dataset
	var traces [][]float64
	for _, rec := range mlab.Generate(mlab.GeneratorConfig{Flows: 64, Seed: o.seed}) {
		if tr := rec.ThroughputTrace(); len(tr) >= 20 {
			traces = append(traces, tr)
		}
	}
	if len(traces) == 0 {
		return nil, errors.New("pelt probe: generated dataset has no trace long enough")
	}
	simple("changepoint.pelt_us_per_flow", "us", 1e3, func() timing {
		var sc changepoint.Scratch
		const minSegment = 10 // mlab.AnalysisConfig's default
		i := 0
		return timeLoop(dur, func(n int) {
			for j := 0; j < n; j++ {
				tr := traces[i%len(traces)]
				i++
				pen := changepoint.BICPenalty(len(tr), sc.EstimateNoise(tr)) * minSegment
				sc.PELT(tr, pen, minSegment)
			}
		})
	})
	simple("stats.sketch_add_ns", "ns", 1, func() timing {
		sk := stats.NewSketch(0, 1, 4096) // the mlab shift sketch's geometry
		rng := rand.New(rand.NewSource(o.seed))
		xs := make([]float64, 1024)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		i := 0
		return timeLoop(dur, func(n int) {
			for j := 0; j < n; j++ {
				sk.Add(xs[i&1023])
				i++
			}
		})
	})
	return ps, nil
}

// cellInputs is what the cell-level probes borrow from the workloads:
// each cell kind's spec at the workload's size with its duration cut to
// a millisecond, the census's model, and its first duel spec uncut.
type cellInputs struct {
	setup map[string]scenario.Spec
	model census.Model
	duel  scenario.Spec
}

func probeInputs(o options) (cellInputs, error) {
	const tiny = 0.001
	in := cellInputs{setup: map[string]scenario.Spec{}}

	inst, err := setupFig3(o.seed, o.quick)
	if err != nil {
		return in, err
	}
	sp := inst.(*cells).specs[0]
	sp.PhaseDurationS = tiny
	in.setup["fig3"] = sp

	if inst, err = setupManyflow(o.seed, o.quick); err != nil {
		return in, err
	}
	sp = inst.(*cells).specs[0]
	sp.DurationS = tiny
	in.setup["manyflow"] = sp

	if inst, err = setupCensus(o.seed, o.quick); err != nil {
		return in, err
	}
	in.model = inst.(*censusShard).model
	in.duel = in.model.SpecAt(0)
	sp = in.duel
	sp.DurationS = tiny
	in.setup["duel"] = sp

	if inst, err = setupHunt(o.seed, o.quick); err != nil {
		return in, err
	}
	g := hunt.RandomGenome(rand.New(rand.NewSource(o.seed)), inst.(*huntBatch).bounds)
	sp = g.Decode(hunt.Params{Seed: o.seed, FaultSeed: o.seed})
	for i := range sp.Cross {
		sp.Cross[i].DurS = tiny
	}
	in.setup["huntcell"] = sp
	return in, nil
}
