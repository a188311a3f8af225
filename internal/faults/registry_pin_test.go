package faults

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// describeChain walks a built chain from its outermost wrapper inward
// and renders every injector's parameters plus the first draw of its
// private random stream (which identifies the sub-seed it was given).
func describeChain(q sim.Qdisc) string {
	var b strings.Builder
	for {
		switch v := q.(type) {
		case *Loss:
			fmt.Fprintf(&b, "loss(p=%v rng=%d) ", v.p, v.rng.Int63())
			q = v.inner
		case *GilbertElliott:
			fmt.Fprintf(&b, "ge(gb=%v bg=%v lg=%v lb=%v rng=%d) ",
				v.cfg.PGoodBad, v.cfg.PBadGood, v.cfg.LossGood, v.cfg.LossBad, v.rng.Int63())
			q = v.inner
		case *Duplicator:
			fmt.Fprintf(&b, "dup(p=%v rng=%d) ", v.p, v.rng.Int63())
			q = v.inner
		case *Reorderer:
			fmt.Fprintf(&b, "reorder(p=%v delay=%v rng=%d) ", v.p, v.delay, v.rng.Int63())
			q = v.inner
		case *Jitter:
			fmt.Fprintf(&b, "jitter(max=%v rng=%d) ", v.max, v.rng.Int63())
			q = v.inner
		case *Outage:
			fmt.Fprintf(&b, "outage(period=%v down=%v drop=%v windows=[", v.period, v.down, v.DropDuring)
			for _, w := range v.windows {
				fmt.Fprintf(&b, "%v-%v ", w.Start, w.End)
			}
			b.WriteString("]) ")
			q = v.inner
		default:
			return b.String() + "inner"
		}
	}
}

// TestNamedProfilesBuildPinnedChains pins, for every registered
// profile at seed 1, which injectors Build composes, in which order,
// with which probabilities, durations and sub-seeds. The table was
// recorded before the registry changed representation.
func TestNamedProfilesBuildPinnedChains(t *testing.T) {
	want := map[string]string{
		"clean":            "inner",
		"dsl-noise":        "loss(p=0.002 rng=8113958273800549226) reorder(p=0.01 delay=5ms rng=8855534638979991142) inner",
		"flaky-cellular":   "loss(p=0.005 rng=9061084568384486742) reorder(p=0.005 delay=30ms rng=8113958273800549226) jitter(max=15ms rng=8855534638979991142) outage(period=20s down=1.5s drop=false windows=[]) inner",
		"satellite-jitter": "loss(p=0.001 rng=8113958273800549226) jitter(max=40ms rng=8855534638979991142) inner",
		"wifi-bursty":      "ge(gb=0.01 bg=0.3 lg=0.0005 lb=0.4 rng=8113958273800549226) jitter(max=3ms rng=8855534638979991142) inner",
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d profiles %v, table has %d", len(names), names, len(want))
	}
	for _, name := range names {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := describeChain(p.Build(new(sim.Engine), &fifo{}, 1).Qdisc()); got != want[name] {
			t.Errorf("%s:\n got  %s\n want %s", name, got, want[name])
		}
	}
}
