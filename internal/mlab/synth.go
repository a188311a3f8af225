package mlab

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/tcpinfo"
)

// Mixture is the fraction of flows generated with each ground-truth
// label.
type Mixture struct {
	AppLimited  float64
	RWndLimited float64
	Cellular    float64
	Steady      float64
	Contending  float64
	Policed     float64
	Short       float64
}

// DefaultMixture reflects the qualitative composition the paper's
// §2.2 surveys describe: most flows short or application-limited
// (Araújo et al.: <40% of traffic is neither application-, host-, nor
// receiver-limited), a substantial receiver-limited share, cellular
// clients excluded by the analysis, and minorities of steady,
// contending, and policed bulk flows.
func DefaultMixture() Mixture {
	return Mixture{
		AppLimited:  0.30,
		RWndLimited: 0.13,
		Cellular:    0.15,
		Steady:      0.17,
		Contending:  0.07,
		Policed:     0.04,
		Short:       0.14,
	}
}

// ndtTestDuration is the nominal NDT test length: 10s, the NDT7
// standard.
const ndtTestDuration = 10 * time.Second

// baseTime stamps the first record: 2023-06-01, the paper's
// measurement month.
var baseTime = time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)

// GeneratorConfig parameterizes the synthetic NDT dataset.
type GeneratorConfig struct {
	// Flows is the number of records to generate (the paper's June
	// 2023 query returned 9,984).
	Flows int
	// snapshotInterval spaces the TCP_INFO snapshots (default 100ms).
	// Only tests change it.
	snapshotInterval time.Duration
	// Seed drives all randomness.
	Seed int64
	// ShardSize switches the generator to sharded seeding: every
	// ShardSize-record shard draws from its own rand stream derived via
	// faults.DeriveSeed(Seed, "mlab/shard/<k>"), so shards can be
	// generated on any number of workers — or resumed anywhere — with
	// byte-identical output. 0 (the default) keeps the historical
	// single-stream sequence, which is inherently sequential.
	ShardSize int `json:"shard_size,omitempty"`
}

func (c GeneratorConfig) norm() GeneratorConfig {
	if c.Flows <= 0 {
		c.Flows = 9984
	}
	if c.snapshotInterval <= 0 {
		c.snapshotInterval = 100 * time.Millisecond
	}
	return c
}

// Generate produces a synthetic NDT dataset in memory. Large datasets
// should stream through GenSource (or GenerateJSONL) instead.
func Generate(cfg GeneratorConfig) []Record {
	src := NewGenSource(cfg)
	recs := make([]Record, src.cfg.Flows)
	for i := range recs {
		if err := src.Next(&recs[i]); err != nil {
			// A generator source only ever returns io.EOF, and only
			// after cfg.Flows records.
			panic(err)
		}
	}
	return recs
}

// GenSource streams the synthetic dataset one record at a time — the
// generator half of the constant-memory passive pipeline. It
// implements RecordSource, reusing the caller's record storage, so
// generating N flows holds one flow in memory at a time.
type GenSource struct {
	cfg   GeneratorConfig
	rng   *rand.Rand
	i     int
	limit int
	trace []float64
}

// NewGenSource returns a source for cfg's full dataset.
func NewGenSource(cfg GeneratorConfig) *GenSource {
	cfg = cfg.norm()
	g := &GenSource{cfg: cfg, limit: cfg.Flows}
	if cfg.ShardSize <= 0 {
		g.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return g
}

// newShardSource returns a source restricted to records [start, end)
// of cfg's dataset. cfg must be normalized and sharded, and start must
// sit on a shard boundary.
func newShardSource(cfg GeneratorConfig, start, end int) *GenSource {
	return &GenSource{cfg: cfg, i: start, limit: end}
}

// shardSeed derives shard k's independent random stream.
func shardSeed(base int64, k int) int64 {
	return faults.DeriveSeed(base, "mlab/shard/"+strconv.Itoa(k))
}

// Next generates the next record into rec, reusing its snapshot
// storage, and returns io.EOF once the configured flow count has been
// produced.
func (g *GenSource) Next(rec *Record) error {
	if g.i >= g.limit {
		return io.EOF
	}
	if g.cfg.ShardSize > 0 && (g.rng == nil || g.i%g.cfg.ShardSize == 0) {
		g.rng = rand.New(rand.NewSource(shardSeed(g.cfg.Seed, g.i/g.cfg.ShardSize)))
	}
	label := drawLabel(g.rng)
	synthesizeInto(g.rng, g.cfg, g.i, label, rec, &g.trace)
	g.i++
	return nil
}

func drawLabel(rng *rand.Rand) Label {
	m := DefaultMixture()
	u := rng.Float64()
	for _, e := range []struct {
		p float64
		l Label
	}{
		{m.AppLimited, LabelAppLimited},
		{m.RWndLimited, LabelRWndLimited},
		{m.Cellular, LabelCellular},
		{m.Steady, LabelSteady},
		{m.Contending, LabelContending},
		{m.Policed, LabelPoliced},
		{m.Short, LabelShort},
	} {
		if u < e.p {
			return e.l
		}
		u -= e.p
	}
	return LabelSteady
}

// accessRate draws a plausible broadband access rate in bits/s
// (log-uniform between 10 and 940 Mbit/s for wired/wifi).
func accessRate(rng *rand.Rand) float64 {
	lo, hi := math.Log(10e6), math.Log(940e6)
	return math.Exp(lo + rng.Float64()*(hi-lo))
}

// noise returns a multiplicative noise factor at the given level.
func noise(rng *rand.Rand, level float64) float64 { return 1 + level*rng.NormFloat64() }

// contendingLevels are the share levels a contending flow cycles
// through as competitors arrive and leave.
var contendingLevels = [...]float64{0.9, 0.45, 0.3, 0.6, 0.9}

// growTrace returns a length-n slice backed by buf's array.
func growTrace(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growSnaps returns a length-n snapshot slice reusing s's array.
func growSnaps(s []tcpinfo.Snapshot, n int) []tcpinfo.Snapshot {
	if cap(s) < n {
		return make([]tcpinfo.Snapshot, n)
	}
	return s[:n]
}

// synthesizeInto generates one flow into rec, reusing rec's snapshot
// storage and the caller's trace buffer: after warmup the only
// steady-state allocation per record is its ID string. The rand draw
// sequence is identical to the original record-at-a-time generator,
// so datasets are byte-for-byte stable across refactors.
func synthesizeInto(rng *rand.Rand, cfg GeneratorConfig, idx int, label Label, rec *Record, traceBuf *[]float64) {
	interval := cfg.snapshotInterval
	dur := ndtTestDuration
	access := AccessWifi
	if rng.Float64() < 0.35 {
		access = AccessEthernet
	}

	cap := accessRate(rng)

	var trace []float64
	var appLimFrac, rwndLimFrac float64

	switch label {
	case LabelShort:
		dur = time.Duration((0.2 + 0.8*rng.Float64()) * float64(time.Second))
		n := int(dur / interval)
		if n < 2 {
			n = 2
		}
		trace = growTrace(traceBuf, n)
		// A burst that fits the initial window: brief spike then done.
		trace[0] = cap * (0.3 + 0.4*rng.Float64())
		for i := 1; i < n; i++ {
			trace[i] = trace[0] * math.Exp(-float64(i)/2) * noise(rng, 0.1)
		}
		appLimFrac = 0.8

	case LabelAppLimited:
		// Video-like: on-off chunk fetches bounded well below capacity.
		bitrate := cap * (0.05 + 0.25*rng.Float64())
		n := int(dur / interval)
		trace = growTrace(traceBuf, n)
		period := 4 + rng.Intn(16) // chunk period in snapshots
		duty := 0.3 + 0.4*rng.Float64()
		for i := range trace {
			if float64(i%period) < duty*float64(period) {
				trace[i] = bitrate / duty * noise(rng, 0.15)
			} else {
				trace[i] = bitrate * 0.05 * noise(rng, 0.3)
			}
			if trace[i] < 0 {
				trace[i] = 0
			}
		}
		appLimFrac = 0.5 + 0.45*rng.Float64()

	case LabelRWndLimited:
		// Clamped by the receiver's window: flat, below capacity.
		lvl := cap * (0.1 + 0.3*rng.Float64())
		n := int(dur / interval)
		trace = growTrace(traceBuf, n)
		for i := range trace {
			trace[i] = lvl * noise(rng, 0.03)
		}
		rwndLimFrac = 0.6 + 0.35*rng.Float64()

	case LabelCellular:
		access = AccessCellular
		// Fading radio: smooth random walk between 20% and 100% of a
		// cellular-range capacity.
		cap = math.Exp(math.Log(5e6) + rng.Float64()*(math.Log(300e6)-math.Log(5e6)))
		n := int(dur / interval)
		trace = growTrace(traceBuf, n)
		level := 0.6
		for i := range trace {
			level += 0.08 * rng.NormFloat64()
			if level < 0.2 {
				level = 0.2
			}
			if level > 1 {
				level = 1
			}
			trace[i] = cap * level * noise(rng, 0.1)
		}

	case LabelSteady:
		// Bulk flow with a stable allocation near capacity.
		lvl := cap * (0.85 + 0.1*rng.Float64())
		n := int(dur / interval)
		trace = growTrace(traceBuf, n)
		for i := range trace {
			trace[i] = lvl * noise(rng, 0.05)
		}

	case LabelContending:
		// Bulk flow whose share shifts when competitors arrive/leave:
		// 1-3 level changes across the test.
		n := int(dur / interval)
		trace = growTrace(traceBuf, n)
		shifts := 1 + rng.Intn(3)
		var bpsArr [3]int
		bps := bpsArr[:shifts]
		for i := range bps {
			bps[i] = n/4 + rng.Intn(n/2)
		}
		li := rng.Intn(2)
		cur := contendingLevels[li]
		k := 0
		for i := range trace {
			for k < len(bps) && i == bps[k] {
				li = (li + 1 + rng.Intn(len(contendingLevels)-1)) % len(contendingLevels)
				cur = contendingLevels[li]
				k++
			}
			trace[i] = cap * cur * noise(rng, 0.06)
		}

	case LabelPoliced:
		// Flach et al.'s policing signature: full rate while the token
		// bucket drains, then a hard clamp with loss.
		policedRate := cap * (0.1 + 0.2*rng.Float64())
		n := int(dur / interval)
		trace = growTrace(traceBuf, n)
		burst := n / 6
		for i := range trace {
			if i < burst {
				trace[i] = cap * 0.9 * noise(rng, 0.05)
			} else {
				trace[i] = policedRate * noise(rng, 0.08)
			}
		}
	}

	n := len(trace)
	rec.Snapshots = growSnaps(rec.Snapshots, n)
	snaps := rec.Snapshots
	var bytes float64
	var mean float64
	for i := range trace {
		if trace[i] < 0 {
			trace[i] = 0
		}
		bytes += trace[i] / 8 * interval.Seconds()
		at := time.Duration(i+1) * interval
		// Every field is assigned, so reused snapshot storage is safe.
		snaps[i] = tcpinfo.Snapshot{
			At:            at,
			BytesAcked:    int64(bytes),
			BytesSent:     int64(bytes * 1.01),
			ThroughputBps: trace[i],
			SRTT:          time.Duration((20 + 40*rng.Float64()) * float64(time.Millisecond)),
			MinRTT:        15 * time.Millisecond,
			AppLimited:    time.Duration(appLimFrac * float64(at)),
			RWndLimited:   time.Duration(rwndLimFrac * float64(at)),
			BusyTime:      time.Duration((1 - appLimFrac - rwndLimFrac) * float64(at)),
		}
		mean += trace[i]
	}
	if n > 0 {
		mean /= float64(n)
	}
	rec.ID = fmt.Sprintf("ndt-%06d", idx)
	rec.Start = baseTime.Add(time.Duration(idx) * time.Minute)
	rec.Duration = time.Duration(n) * interval
	rec.Access = access
	rec.MeanThroughputBps = mean
	rec.TruthLabel = label
}
