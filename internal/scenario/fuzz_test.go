package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// removedSpecKeys are spec keys that were deleted: the sweep axes a
// grid supplies instead (pairs, queues) or that are constants of their
// experiment, and manyflow's churn knobs, fig3's pulse override and
// access's user count. A spec naming one must fail, not run the
// default silently.
var removedSpecKeys = []string{
	"pairs", "queues", "pulse_freqs_hz", "pulse_amps", "buffer_bdps",
	"rates_bps", "churn_think_s", "long_frac", "pulse_freq_hz", "users",
}

// addSpecSeeds seeds f with the benchmark's spec files and a few
// hand-written specs.
func addSpecSeeds(f *testing.F) {
	for _, name := range []string{"fig3.json", "manyflow.json"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "ledger", "specs", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"experiment":"duel","ccas":["reno","bbr"],"queue":"fq","fault_profile":"wifi-bursty"}`))
	f.Add([]byte(`{"experiment":"huntcell","probe":true,"cross":[{"kind":"reno","dur_s":9}],` +
		`"fault":{"loss_prob":0.01,"outages":[{"start_s":1,"end_s":2}]}}`))
	f.Add([]byte(`{"experiment":"fig1","pairs":[["reno","bbr"]]}`))
}

// checkRoundTrip holds a decoded value to its canonical form: decoding
// that form again must succeed and re-encode to the same bytes and
// hash.
func checkRoundTrip[T any](t *testing.T, v T, parse func([]byte) (T, error), hash func(T) string) []byte {
	c, err := CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parse(c)
	if err != nil {
		t.Fatalf("canonical form %s does not decode: %v", c, err)
	}
	c2, err := CanonicalJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c, c2) {
		t.Fatalf("canonical form is not a fixed point:\n%s\n%s", c, c2)
	}
	if hash(v) != hash(back) {
		t.Fatalf("hash moved across a round trip of %s", c)
	}
	return c
}

// checkRemovedKeys adds each removed key to the object at path within
// canonical and requires parse to reject it as an unknown field.
func checkRemovedKeys[T any](t *testing.T, canonical []byte, path string, parse func([]byte) (T, error)) {
	for _, key := range removedSpecKeys {
		var obj map[string]any
		if err := json.Unmarshal(canonical, &obj); err != nil {
			t.Fatal(err)
		}
		target := obj
		if path != "" {
			inner, ok := obj[path].(map[string]any)
			if !ok {
				return
			}
			target = inner
		}
		target[key] = []any{1}
		b, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parse(b); err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Fatalf("removed key %q in %s: err = %v, want an unknown-field error", key, b, err)
		}
	}
}

// FuzzParseSpec drives ccac run -spec's decoder: whatever it accepts
// has a canonical form that decodes to itself with the same hash, and
// a removed key is an error, never a silent default.
func FuzzParseSpec(f *testing.F) {
	addSpecSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, err := ParseSpec(b)
		if err != nil {
			return
		}
		c := checkRoundTrip(t, sp, ParseSpec, Spec.Hash)
		checkRemovedKeys(t, c, "", ParseSpec)
	})
}

// FuzzParseGrid is FuzzParseSpec for grid files: the grid and its base
// spec round-trip, a removed key in the base is an error, and so is
// the deleted single-CCA axis.
func FuzzParseGrid(f *testing.F) {
	f.Add([]byte(`{"base":{"experiment":"duel","duration_s":5,"seed":1},` +
		`"pairs":[["reno","bbr"],["reno","cubic"]],"queues":["droptail","fq"],` +
		`"fault_profiles":["clean","wifi-bursty"],"derive_seeds":true}`))
	f.Add([]byte(`{"base":{"experiment":"manyflow","duration_s":5,"flows":200,"fluid_above":16},"seeds":[1,2,3,4]}`))
	f.Add([]byte(`{"base":{"experiment":"cellular"},"ccas":["reno","bbr"]}`))
	hash := func(g Grid) string {
		b, err := CanonicalJSON(g)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := ParseGrid(b)
		if err != nil {
			return
		}
		checkRoundTrip(t, g.Base, ParseSpec, Spec.Hash)
		c := checkRoundTrip(t, g, ParseGrid, hash)
		checkRemovedKeys(t, c, "base", ParseGrid)
		var obj map[string]any
		if err := json.Unmarshal(c, &obj); err != nil {
			t.Fatal(err)
		}
		obj["ccas"] = []any{"reno"}
		withCCAs, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseGrid(withCCAs); err == nil {
			t.Fatalf("grid %s with the deleted ccas axis decoded", withCCAs)
		}
	})
}
