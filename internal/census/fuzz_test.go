package census

import (
	"bytes"
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
