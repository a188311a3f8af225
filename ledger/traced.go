package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/mlab"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// perLayer is every per-layer metric the traced run reports, with its
// unit — the same list BENCHMARK.json carries. Every traced run prints
// all of them. A probe metric describes its layer and reads the same
// whatever workload is being traced; an op metric (counts, spans,
// modelled shares) describes the traced workload's op and is 0 where
// that op never enters the layer.
var perLayer = []struct{ name, unit string }{
	{"sim.events_per_op", "count"},
	{"sim.pkts_per_op", "count"},
	{"sim.stack_ns_per_event", "ns"},
	{"sim.engine_sparse_ns", "ns"},
	{"sim.engine_dense_ns", "ns"},
	{"sim.link_ns_per_pkt", "ns"},
	{"sim.engine_share", "ratio"},
	{"sim.link_share", "ratio"},

	{"qdisc.droptail_ns", "ns"},
	{"qdisc.fq_ns", "ns"},
	{"qdisc.fq_codel_ns", "ns"},
	{"qdisc.useriso_ns_16u", "ns"},
	{"qdisc.useriso_ns_2000u", "ns"},
	{"qdisc.drops_per_op", "count"},
	{"qdisc.share", "ratio"},

	{"transport.flow_second_ms.cubic", "ms"},
	{"transport.flow_second_ms.reno", "ms"},
	{"transport.flow_second_ms.bbr", "ms"},
	{"transport.flow_setup_us", "us"},
	{"transport.sends_per_op", "count"},
	{"transport.acks_per_op", "count"},
	{"transport.losses_per_op", "count"},
	{"transport.timeouts_per_op", "count"},
	{"transport.retx_frac", "ratio"},
	{"transport.self_ns_per_ack", "ns"},
	{"transport.share", "ratio"},

	{"nimbus.eta_windows_per_op", "count"},
	{"nimbus.pulses_per_op", "count"},
	{"nimbus.flow_second_ms", "ms"},
	{"dsp.fft_us", "us"},
	{"nimbus.share", "ratio"},

	{"traffic.churn_flows_per_op", "count"},
	{"traffic.churn_completed_frac", "ratio"},

	{"core.setup_ms.fig3", "ms"},
	{"core.setup_ms.manyflow", "ms"},
	{"core.setup_ms.duel", "ms"},
	{"core.setup_ms.huntcell", "ms"},
	{"core.check_overhead_frac", "ratio"},
	{"core.manyflow_cliff_x", "x"},
	{"core.manyflow_fluid_x", "x"},
	{"core.unattributed_frac", "ratio"},

	{"scenario.hash_us", "us"},
	{"scenario.spine_us_per_spec", "us"},
	{"scenario.cache_put_us", "us"},
	{"scenario.cache_hit_us", "us"},
	{"scenario.spec_ms_p50", "ms"},
	{"scenario.spec_ms_p95", "ms"},
	{"scenario.worker_busy_frac", "ratio"},

	{"census.sample_us", "us"},
	{"census.classify_us", "us"},
	{"census.share", "ratio"},

	{"hunt.evals_per_op", "count"},
	{"hunt.generations", "count"},
	{"hunt.revisit_frac", "ratio"},
	{"hunt.eval_ms_p50", "ms"},
	{"hunt.eval_ms_p99", "ms"},
	{"hunt.search_overhead_frac", "ratio"},

	{"mlab.decode_s", "s"},
	{"mlab.analyze_mem_s", "s"},
	{"mlab.decode_share", "ratio"},
	{"mlab.analyze_share", "ratio"},
	{"mlab.decode_mb_per_s", "MB/s"},
	{"mlab.bytes_per_flow", "B"},
	{"mlab.gen_s_w1", "s"},
	{"mlab.gen_s_w1_max", "s"},
	{"mlab.gen_s_w2", "s"},
	{"mlab.gen_s_w2_max", "s"},
	{"changepoint.pelt_us_per_flow", "us"},
	{"stats.sketch_add_ns", "ns"},

	{"obs.trace_overhead_frac", "ratio"},
}

// measureTraced is the traced run: one untraced op for the wall every
// share is a share of, the same op again under a counting tracer with
// spans at the benchmark's own call sites, then the layer probes. It
// reports no end-to-end metric; tracing is never on when those are
// taken.
func measureTraced(wl *workload, o options) (record, error) {
	rec := record{Workload: wl.name, Trace: true, Seed: o.seed, Metrics: map[string]metric{}}
	rec.Work, rec.WorkUnit = wl.work(o.quick)
	m := rec.Metrics
	for _, pl := range perLayer {
		m[pl.name] = metric{Unit: pl.unit}
	}
	set := func(name string, v float64) {
		e, ok := m[name]
		if !ok {
			panic("ledger: unlisted per-layer metric " + name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		e.Value, e.N = v, 1
		m[name] = e
	}

	col := newCollector()
	id := col.begin("setup")
	inst, ref, err := setUp(wl, o)
	col.end(id)
	if err != nil {
		return rec, err
	}
	rec.Digest = digest(ref)

	col.beginOp("op.untraced", 1)
	got, err := inst.run(nil)
	plain := col.endOp().seconds()
	rec.Attempted++
	verify(&rec, inst, "untraced op", got, ref, err)

	// Tracing must not perturb results: same bytes, same checks.
	col.beginOp("op.traced", 2)
	got, err = inst.run(col)
	traced := col.endOp().seconds()
	rec.Attempted++
	verify(&rec, inst, "traced op", got, ref, err)
	rec.Correct = rec.Failed == 0

	// Counts: exact, and the same on every run of the same seed.
	events := col.totals["sim.engine.events"]
	pkts := col.totals["sim.link.sent_packets"]
	set("sim.events_per_op", events)
	set("sim.pkts_per_op", pkts)
	if events > 0 {
		set("sim.stack_ns_per_event", plain*1e9/events)
	}
	set("qdisc.drops_per_op", col.totals["sim.link.dropped_packets"]+col.count(obs.EvMark))
	set("transport.sends_per_op", col.count(obs.EvSend))
	set("transport.acks_per_op", col.count(obs.EvAck))
	set("transport.losses_per_op", col.count(obs.EvLoss))
	set("transport.timeouts_per_op", col.count(obs.EvTimeout))
	if sent := col.totals["flow.bytes_sent"]; sent > 0 {
		set("transport.retx_frac", col.totals["flow.bytes_retrans"]/sent)
	}
	set("nimbus.eta_windows_per_op", col.count(obs.EvEta))
	set("nimbus.pulses_per_op", col.count(obs.EvPulse))
	set("obs.trace_overhead_frac", traced/plain-1)

	// Spans: the runner's per-spec timings and the benchmark's own.
	specMs := make([]float64, len(col.specs))
	busyFrac := 0.0
	for i, s := range col.specs {
		specMs[i] = s.Elapsed.Seconds() * 1e3
		busyFrac += s.Elapsed.Seconds() / (float64(wl.pool) * traced)
	}
	set("scenario.spec_ms_p50", quantile(specMs, 0.5))
	set("scenario.spec_ms_p95", quantile(specMs, 0.95))
	set("scenario.worker_busy_frac", busyFrac)
	classify := 0.0
	for _, s := range col.spans {
		if s.Name == "census.classify" {
			classify += s.seconds()
		}
	}
	set("census.share", classify/traced)

	// Probes, then the ledger: counts priced at probed unit costs.
	col.opID = 0
	probeDur := time.Duration(o.seconds / 40 * float64(time.Second))
	if probeDur < 2*time.Millisecond {
		probeDur = 2 * time.Millisecond
	}
	ps, err := runProbes(col, o, probeDur)
	if err != nil {
		return rec, fmt.Errorf("probes: %w", err)
	}
	for name, pm := range ps.metrics {
		set(name, pm.Value)
		m[name] = pm // with the probe's iteration count
	}
	led := ps.ledger(wl, plain, events, pkts, float64(col.probeAcks.Load()))
	set("transport.self_ns_per_ack", led.transportSelfNs)
	if wl.enginePath != "" {
		set("sim.engine_share", led.engine)
		set("sim.link_share", led.link)
		set("qdisc.share", led.qdisc)
		set("transport.share", led.transport)
		set("nimbus.share", led.nimbus)
		set("core.unattributed_frac", 1-led.engine-led.link-led.qdisc-led.transport-led.nimbus)
	}

	if wl.extras != nil {
		id := col.begin("extras")
		err := wl.extras(&tracedRun{
			inst: inst, ref: ref, col: col, o: o, plain: plain, specMs: specMs, busyFrac: busyFrac, set: set,
		})
		col.end(id)
		if err != nil {
			return rec, err
		}
	}
	if err := col.writeSpans(filepath.Join(o.outDir, "trace-"+wl.name+".jsonl")); err != nil {
		return rec, err
	}
	return rec, nil
}

// ledgerShares is the modelled split of one op's wall time. Inside a
// single cell call no span can be taken from outside, so a layer's
// share there is its count times its probed unit cost, with the layers
// beneath it subtracted from each probe so self time is not counted
// twice. What the model leaves over is core.unattributed_frac.
type ledgerShares struct {
	engine, link, qdisc, transport, nimbus float64
	transportSelfNs                        float64
}

func (ps *probeSet) ledger(wl *workload, wallS, events, pkts, probeAcks float64) ledgerShares {
	var l ledgerShares
	dense, sparse := ps.value("sim.engine_dense_ns"), ps.value("sim.engine_sparse_ns")
	droptail := ps.value("qdisc.droptail_ns")
	// The link probe's packet is two heap-path events and a DropTail
	// pair; the rest is the link's own.
	linkSelf := math.Max(0, ps.value("sim.link_ns_per_pkt")-2*sparse-droptail)
	// A flow-second is its events at the dense engine's price, its
	// packets through link and DropTail, and the sender, receiver and
	// controller's own work per ack.
	selfPerAck := func(fs flowSecond) float64 {
		if fs.acks == 0 {
			return 0
		}
		return math.Max(0, (fs.ns-fs.events*dense-fs.packets*(linkSelf+droptail))/fs.acks)
	}
	for _, name := range []string{"cubic", "reno", "bbr"} {
		l.transportSelfNs += selfPerAck(ps.flows[name]) / 3
	}
	nimbusExtra := math.Max(0, selfPerAck(ps.flows["nimbus"])-l.transportSelfNs)

	if wl.enginePath == "" || wallS <= 0 {
		return l
	}
	// the shares are of worker time: a sweep's cells run pool at once
	wallNs := wallS * 1e9 * float64(wl.pool)
	engineNs := dense
	if wl.enginePath == "sparse" {
		engineNs = sparse
	}
	qdiscNs := 0.0
	for name, w := range wl.qdiscMix {
		qdiscNs += w * ps.value(name)
	}
	l.engine = events * engineNs / wallNs
	l.link = pkts * linkSelf / wallNs
	l.qdisc = pkts * qdiscNs / wallNs
	// every delivered packet is acked once, also by the churn flows no
	// tracer is attached to
	l.transport = pkts * l.transportSelfNs / wallNs
	if wl.nimbusProbe {
		l.nimbus = probeAcks * nimbusExtra / wallNs
	}
	return l
}

// tracedRun is what a workload's extras see of the traced run.
type tracedRun struct {
	inst     instance
	ref      []byte
	col      *collector
	o        options
	plain    float64   // the untraced op's wall, seconds
	specMs   []float64 // every spec of the traced op, milliseconds
	busyFrac float64   // their sum over workers x the traced op's wall
	set      func(name string, v float64)
}

// timedSpec runs one spec through a bare runner and returns its wall
// and result.
func timedSpec(col *collector, name string, sp scenario.Spec) (float64, []byte, error) {
	id := col.begin(name)
	res := (&scenario.Runner{}).Run(context.Background(), sp)
	wall := col.end(id).seconds()
	if res.Err != "" {
		return 0, nil, fmt.Errorf("%s: %s", name, res.Err)
	}
	return wall, res.Result, nil
}

// manyflowExtras reads the traced op's churn counts and reruns its
// first cell four ways: checker on, checker off, 100 users, fluid
// hybrid.
func manyflowExtras(t *tracedRun) error {
	var started, completed, events float64
	for i, line := range resultLines(t.ref) {
		var out manyflowOutcome
		if err := json.Unmarshal(line, &out); err != nil {
			return err
		}
		started += float64(out.FlowsStarted)
		completed += float64(out.FlowsCompleted)
		if i == 0 {
			events = out.Events
		}
	}
	t.set("traffic.churn_flows_per_op", started)
	if started > 0 {
		t.set("traffic.churn_completed_frac", completed/started)
	}

	sp := t.inst.(*cells).specs[0]
	// The scenario adapter always arms the invariant checker, so the
	// unchecked cell goes through core.RunManyFlow with the adapter's
	// own field mapping. Each comparison reruns its baseline next to
	// it: seconds later, after the probes, the same cell can read a
	// tenth apart.
	direct := func(name string, check bool) (float64, error) {
		id := t.col.begin(name)
		_, err := core.RunManyFlow(core.ManyFlowConfig{
			CCA1: sp.CCAs[0], CCA2: sp.CCAs[1],
			Users: sp.Flows, Duration: sp.Duration(), Seed: sp.Seed, Check: check,
		})
		return t.col.end(id).seconds(), err
	}
	on, err := direct("manyflow.checked", true)
	if err != nil {
		return err
	}
	off, err := direct("manyflow.unchecked", false)
	if err != nil {
		return err
	}
	t.set("core.check_overhead_frac", (on-off)/on)

	small := sp
	small.Flows = 100
	wall, res, err := timedSpec(t.col, "manyflow.100users", small)
	if err != nil {
		return err
	}
	var cost struct{ Events float64 }
	if err := json.Unmarshal(res, &cost); err != nil {
		return err
	}
	if cost.Events > 0 && events > 0 {
		t.set("core.manyflow_cliff_x", (on/events)/(wall/cost.Events))
	}

	fluid := sp
	fluid.FluidAbove = 200
	if wall, _, err = timedSpec(t.col, "manyflow.fluid", fluid); err != nil {
		return err
	}
	t.set("core.manyflow_fluid_x", wall/on)
	return nil
}

// huntExtras derives the search's own numbers from the traced op's
// per-evaluation spans.
func huntExtras(t *tracedRun) error {
	rs, err := t.inst.(*huntBatch).results(t.ref)
	if err != nil {
		return err
	}
	generations := 0
	for _, r := range rs {
		generations += len(r.History)
	}
	distinct := map[string]bool{}
	for _, s := range t.col.specs {
		distinct[s.Hash] = true
	}
	evals := len(t.col.specs)
	t.set("hunt.evals_per_op", float64(evals))
	t.set("hunt.generations", float64(generations))
	if evals > 0 {
		t.set("hunt.revisit_frac", 1-float64(len(distinct))/float64(evals))
	}
	t.set("hunt.eval_ms_p50", quantile(t.specMs, 0.5))
	t.set("hunt.eval_ms_p99", quantile(t.specMs, 0.99))
	// what the workers did not spend evaluating: GA bookkeeping on the
	// sweeping goroutine and idle time at the generation barrier
	t.set("hunt.search_overhead_frac", 1-t.busyFrac)
	return nil
}

// mlabExtras splits the pipeline into decode and analysis by running
// each alone, and times dataset generation, which set-up keeps out of
// the op.
func mlabExtras(t *tracedRun) error {
	d := t.inst.(*mlabDataset)

	id := t.col.begin("mlab.decode")
	src, err := mlab.NewRecordStream(bytes.NewReader(d.data), mlab.StreamLimits{})
	if err != nil {
		return err
	}
	var rec mlab.Record
	for err = src.Next(&rec); err == nil; err = src.Next(&rec) {
	}
	src.Close()
	decode := t.col.end(id).seconds()
	if !errors.Is(err, io.EOF) {
		return err
	}

	// the same records without the JSONL in between: sequential
	// generation is what GenerateJSONL encoded in set-up
	recs := mlab.Generate(mlab.GeneratorConfig{Flows: d.flows, Seed: t.o.seed})
	id = t.col.begin("mlab.analyze_mem")
	_, err = mlab.AnalyzeStream(&mlab.SliceSource{Recs: recs}, mlab.AnalysisConfig{}, mlab.StreamOptions{Workers: workers})
	analyze := t.col.end(id).seconds()
	if err != nil {
		return err
	}
	t.set("mlab.decode_s", decode)
	t.set("mlab.analyze_mem_s", analyze)
	t.set("mlab.decode_share", decode/t.plain)
	t.set("mlab.analyze_share", analyze/t.plain)
	t.set("mlab.decode_mb_per_s", float64(len(d.data))/1e6/decode)
	t.set("mlab.bytes_per_flow", float64(len(d.data))/float64(d.flows))

	reps := 4
	if t.o.quick {
		reps = 2
	}
	for _, w := range []int{1, 2} {
		cfg := mlab.GeneratorConfig{Flows: d.flows, Seed: t.o.seed}
		if w > 1 {
			cfg.ShardSize = 256 // the generator is sequential without shards
		}
		var secs []float64
		for i := 0; i < reps; i++ {
			var buf bytes.Buffer
			id := t.col.begin(fmt.Sprintf("mlab.gen_w%d", w))
			_, err := mlab.GenerateJSONL(&buf, cfg, w, false)
			secs = append(secs, t.col.end(id).seconds())
			if err != nil {
				return err
			}
		}
		s := summarize(secs, "s")
		t.set(fmt.Sprintf("mlab.gen_s_w%d", w), s.Value)
		t.set(fmt.Sprintf("mlab.gen_s_w%d_max", w), s.Max)
	}
	return nil
}
