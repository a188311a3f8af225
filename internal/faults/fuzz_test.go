package faults

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzFaultConfig feeds Config the bytes it reads from outside the
// program (`ccac run -spec`, a hunt corpus entry): decoding, Validate
// and Canonical never panic, Canonical is idempotent, and a config that
// validates builds a chain that survives traffic and, when it
// oscillates, yields a finite positive rate. Seeded with the six hunt
// corpus entries' fault objects, a periodic flap, and values whose
// time.Duration form underflows or overflows.
func FuzzFaultConfig(f *testing.F) {
	for _, seed := range []string{
		`{"loss_prob":0.01,"dup_prob":0.015,"reorder_prob":0.01,"reorder_delay_ms":13,"jitter_ms":29,"outages":[{"start_s":6.9,"end_s":7.6000000000000005}],"drop_during_outages":true}`,
		`{"loss_prob":0.02,"reorder_prob":0.01,"jitter_ms":16,"osc_amp":0.45,"osc_period_s":7.5,"osc_phase":0.8}`,
		`{"osc_amp":0.25,"osc_period_s":8,"osc_phase":0.05}`,
		`{"outages":[{"start_s":0,"end_s":0.6000000000000001},{"start_s":11.8,"end_s":12.100000000000001}],"osc_amp":0.45,"osc_period_s":2.5,"osc_phase":0.7000000000000001}`,
		`{"dup_prob":0.005,"outages":[{"start_s":0.9,"end_s":1.7000000000000002}],"drop_during_outages":true,"osc_amp":0.6,"osc_period_s":8,"osc_phase":0.8500000000000001}`,
		`{"loss_prob":0.035,"ge":{"p_good_bad":0.03,"p_bad_good":0.115,"loss_bad":0.46},"dup_prob":0.01,"outages":[{"start_s":0.4,"end_s":0.8}],"osc_amp":0.6,"osc_period_s":6,"osc_phase":0.95}`,
		`{"jitter_ms":15,"flap_period_s":0.05,"flap_down_s":0.01}`,
		`{"osc_amp":0.5,"osc_period_s":1e-12}`,
		`{"jitter_ms":1e300,"reorder_prob":0.5,"reorder_delay_ms":1e300,"outages":[{"start_s":0,"end_s":1e300}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil {
			return
		}
		_ = c.Validate()
		canon := c.Canonical()
		if again := canon.Canonical(); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonical is not idempotent:\n once  %+v\n twice %+v", canon, again)
		}
		if canon.Validate() != nil {
			return
		}
		q := canon.Build(new(sim.Engine), &fifo{}, 1).Qdisc()
		for i := 0; i < 1000; i++ {
			now := time.Duration(i) * time.Millisecond
			q.Enqueue(pkt(int64(i)), now)
			q.Dequeue(now)
			if q.Len() < 0 || q.Bytes() < 0 {
				t.Fatalf("step %d: Len %d, Bytes %d", i, q.Len(), q.Bytes())
			}
		}
		if rate := canon.RateFunc(10e6); rate != nil {
			for _, at := range []time.Duration{0, time.Millisecond, time.Second, time.Hour} {
				if r := rate(at); math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
					t.Fatalf("rate(%v) = %v", at, r)
				}
			}
		}
	})
}
