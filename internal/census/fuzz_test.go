package census

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzParsePartial feeds arbitrary bytes to ParsePartial, the reader
// of shard artifacts that `ccac census merge` takes from disk. Parsing
// must never panic. An accepted partial must merge without panic, both
// alone and into a second decoded copy of itself, its report must
// encode, and it must re-encode to bytes that parse to the same
// partial (the same canonical bytes).
func FuzzParsePartial(f *testing.F) {
	whole := testPartial(f, 0, 10)
	f.Add(whole)
	f.Add(testPartial(f, 0, 5))
	f.Add(whole[:len(whole)/2])
	f.Add(bytes.Replace(whole, []byte(`"droptail|clean":{`), []byte(`"droptail|clean":null,"x":{`), 1))
	f.Add(bytes.Replace(whole, []byte(`"jain":{`), []byte(`"jain":null,"y":{`), 1))
	f.Add(bytes.Replace(whole, []byte(`"total":1`), []byte(`"total":-1`), 1))
	f.Add(bytes.Replace(whole, []byte(`,"classes":{"contention-dominated":1}`), nil, 1))

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := ParsePartial(b)
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted partial does not encode: %v", err)
		}
		back, err := ParsePartial(enc)
		if err != nil {
			t.Fatalf("re-encoded partial rejected: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-encoded partial parses to another partial:\n%s\n%s", enc, again)
		}
		twin, err := ParsePartial(enc)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewAggregate()
		if agg.Merge(back.Agg) == nil {
			_ = agg.Merge(twin.Agg)
		}
		if r, err := Merge([]Partial{p}); err == nil {
			if _, err := r.Encode(); err != nil {
				t.Fatalf("report of an accepted partial does not encode: %v", err)
			}
		}
	})
}

// FuzzParseModel holds every model ParseModel accepts to what a census
// needs of it: the first specs it samples carry a finite, positive
// rate, RTT and buffer (a duel would run its default link on a zero)
// and two CCAs, and the model's hash survives a JSON round trip, so a
// partial names the model it sampled.
func FuzzParseModel(f *testing.F) {
	seed := func(set func(*Model)) {
		m := testModel(10)
		set(&m)
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(func(*Model) {})
	seed(func(m *Model) { *m = DefaultModel() })
	seed(func(m *Model) { m.Rate = Dist{Kind: "const"} })
	seed(func(m *Model) { m.RTT = Dist{Kind: "uniform", Lo: -20, Hi: 60} })
	seed(func(m *Model) { m.Buffer = Dist{Kind: "loguniform", Lo: 1, Hi: 1e308} })

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseModel(b)
		if err != nil {
			return
		}
		for i := 0; i < min(m.N, 4); i++ {
			sp := m.SpecAt(i)
			for _, v := range []struct {
				key string
				v   float64
			}{{"rate_bps", sp.RateBps}, {"rtt_ms", sp.RTTMs}, {"buffer_bdp", sp.BufferBDP}} {
				if !(v.v > 0) || math.IsInf(v.v, 0) {
					t.Fatalf("spec %d: %s = %g, want finite and positive", i, v.key, v.v)
				}
			}
			if len(sp.CCAs) != 2 {
				t.Fatalf("spec %d: ccas %v, want two", i, sp.CCAs)
			}
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseModel(enc)
		if err != nil {
			t.Fatalf("re-encoded model rejected: %v\n%s", err, enc)
		}
		if back.Hash() != m.Hash() {
			t.Fatalf("hash changed across a JSON round trip:\n%s", enc)
		}
	})
}
