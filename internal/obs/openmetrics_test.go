package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// A promtool-style validator for the text exposition format, so CI can
// assert scrape validity without an external binary. It enforces the
// rules a Prometheus scraper and `promtool check metrics` care about:
// valid metric/label names, declared families, counters suffixed
// _total, histograms with monotone cumulative buckets, a le="+Inf"
// bucket equal to _count, and a _sum sample per histogram point.
// ---------------------------------------------------------------------------

var (
	validMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	validLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExpoSample parses `name{k="v",...} value`. It returns an error
// for malformed label quoting or a trailing timestamp (this repo
// never emits timestamps).
func parseExpoSample(line string) (expoSample, error) {
	s := expoSample{labels: map[string]string{}}
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return s, fmt.Errorf("no value separator in %q", line)
	}
	s.name = line[:nameEnd]
	rest := line[nameEnd:]
	if rest[0] == '{' {
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++ // skip escaped char
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		if err := parseExpoLabels(rest[1:end], s.labels); err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimPrefix(rest, " ")
	if strings.ContainsRune(rest, ' ') {
		return s, fmt.Errorf("unexpected timestamp or extra field in %q", line)
	}
	v, err := parseExpoValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.value = v
	return s, nil
}

func parseExpoLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("label pair missing '='")
		}
		name := body[:eq]
		if !validLabelName.MatchString(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return fmt.Errorf("unquoted label value for %q", name)
		}
		var val strings.Builder
		i := 1
		closed := false
		for ; i < len(body); i++ {
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					return fmt.Errorf("dangling escape in value of %q", name)
				}
				i++
				switch body[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("invalid escape \\%c in value of %q", body[i], name)
				}
				continue
			}
			if c == '"' {
				closed = true
				break
			}
			if c == '\n' {
				return fmt.Errorf("raw newline in value of %q", name)
			}
			val.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("unterminated value for %q", name)
		}
		if _, dup := into[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		into[name] = val.String()
		body = body[i+1:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		} else if len(body) > 0 {
			return fmt.Errorf("junk after label value of %q", name)
		}
	}
	return nil
}

func parseExpoValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// labelSig is a canonical key for a label set minus "le".
func labelSig(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

type histPoint struct {
	buckets []struct{ le, cum float64 }
	sum     *float64
	count   *float64
}

// validateExposition runs every check and returns the violations.
func validateExposition(data []byte) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	families := map[string]string{} // family name -> kind
	samplesSeen := map[string]bool{}
	hists := map[string]map[string]*histPoint{} // family -> labelSig -> point

	for lineNo, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[1] != "TYPE" && fields[1] != "HELP" {
				fail("line %d: unknown comment %q", lineNo+1, line)
				continue
			}
			if fields[1] != "TYPE" {
				continue
			}
			name, kind := fields[2], fields[3]
			if !validMetricName.MatchString(name) {
				fail("line %d: invalid family name %q", lineNo+1, name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" && kind != "untyped" {
				fail("line %d: invalid kind %q", lineNo+1, kind)
			}
			if _, dup := families[name]; dup {
				fail("line %d: duplicate TYPE for %q", lineNo+1, name)
			}
			if samplesSeen[name] {
				fail("line %d: TYPE for %q after its samples", lineNo+1, name)
			}
			families[name] = kind
			continue
		}
		s, err := parseExpoSample(line)
		if err != nil {
			fail("line %d: %v", lineNo+1, err)
			continue
		}
		if !validMetricName.MatchString(s.name) {
			fail("line %d: invalid metric name %q", lineNo+1, s.name)
		}
		// Resolve the sample to a declared family.
		family, kind := "", ""
		if k, ok := families[s.name]; ok {
			family, kind = s.name, k
		} else {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(s.name, suffix)
				if base != s.name && families[base] == "histogram" {
					family, kind = base, "histogram"
					break
				}
			}
		}
		if family == "" {
			fail("line %d: sample %q has no TYPE declaration", lineNo+1, s.name)
			continue
		}
		samplesSeen[family] = true
		switch kind {
		case "counter":
			if !strings.HasSuffix(family, "_total") {
				fail("line %d: counter %q not suffixed _total", lineNo+1, family)
			}
			if s.value < 0 || math.IsNaN(s.value) {
				fail("line %d: counter %q value %v", lineNo+1, family, s.value)
			}
		case "histogram":
			if hists[family] == nil {
				hists[family] = map[string]*histPoint{}
			}
			sig := labelSig(s.labels)
			hp := hists[family][sig]
			if hp == nil {
				hp = &histPoint{}
				hists[family][sig] = hp
			}
			switch {
			case strings.HasSuffix(s.name, "_bucket"):
				le, ok := s.labels["le"]
				if !ok {
					fail("line %d: bucket without le label", lineNo+1)
					continue
				}
				lev, err := parseExpoValue(le)
				if err != nil {
					fail("line %d: unparseable le %q", lineNo+1, le)
					continue
				}
				hp.buckets = append(hp.buckets, struct{ le, cum float64 }{lev, s.value})
			case strings.HasSuffix(s.name, "_sum"):
				v := s.value
				hp.sum = &v
			case strings.HasSuffix(s.name, "_count"):
				v := s.value
				hp.count = &v
			}
		}
	}

	// Histogram consistency: buckets sorted by le must be monotone
	// non-decreasing, the +Inf bucket must exist and equal _count, and
	// _sum must be present.
	for family, points := range hists {
		for sig, hp := range points {
			sort.Slice(hp.buckets, func(i, j int) bool { return hp.buckets[i].le < hp.buckets[j].le })
			if len(hp.buckets) == 0 {
				fail("histogram %s{%s}: no buckets", family, sig)
				continue
			}
			for i := 1; i < len(hp.buckets); i++ {
				if hp.buckets[i].cum < hp.buckets[i-1].cum {
					fail("histogram %s{%s}: bucket le=%g count %g < previous %g",
						family, sig, hp.buckets[i].le, hp.buckets[i].cum, hp.buckets[i-1].cum)
				}
			}
			last := hp.buckets[len(hp.buckets)-1]
			if !math.IsInf(last.le, 1) {
				fail("histogram %s{%s}: missing le=\"+Inf\" bucket", family, sig)
			}
			if hp.count == nil {
				fail("histogram %s{%s}: missing _count", family, sig)
			} else if math.IsInf(last.le, 1) && last.cum != *hp.count {
				fail("histogram %s{%s}: +Inf bucket %g != count %g", family, sig, last.cum, *hp.count)
			}
			if hp.sum == nil {
				fail("histogram %s{%s}: missing _sum", family, sig)
			}
		}
	}
	return errs
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

func mustValidate(t *testing.T, data []byte) {
	t.Helper()
	for _, err := range validateExposition(data) {
		t.Errorf("exposition: %v", err)
	}
	if t.Failed() {
		t.Logf("exposition was:\n%s", data)
	}
}

func TestWriteOpenMetricsValidExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, buf.Bytes())

	out := buf.String()
	for _, want := range []string{
		"# TYPE qdisc_drops_total counter\n",
		"qdisc_drops_total 10",
		"# TYPE flow_rtt_ms histogram\n",
		`flow_rtt_ms_bucket{flow="1",le="+Inf"} 8`,
		`flow_rtt_ms_count{flow="1"} 8`,
		"# TYPE probe_sessions_active gauge\n",
		"probe_sessions_active 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

func TestWriteOpenMetricsHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat.ms", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 9, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, buf.Bytes())
	want := `# TYPE lat_ms histogram
lat_ms_bucket{le="1"} 1
lat_ms_bucket{le="2"} 3
lat_ms_bucket{le="4"} 4
lat_ms_bucket{le="+Inf"} 6
lat_ms_sum 115.7
lat_ms_count 6
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteOpenMetricsNameAndLabelSanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.link.sent-packets").Add(3)
	r.GaugeL("9weird", "1bad-key=x").Set(1)
	r.GaugeL("sim.link.queue", "link name=bottleneck/0").Set(2)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, buf.Bytes())
	out := buf.String()
	for _, want := range []string{
		`sim_link_sent_packets_total 3`,
		`sim_link_queue{link_name="bottleneck/0"} 2`,
		`_9weird{_1bad_key="x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteOpenMetricsLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeL("esc.test", `reason=quote"back\slash`+"\nnewline").Set(1)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, buf.Bytes())
	want := `esc_test{reason="quote\"back\\slash\nnewline"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaped sample %q missing from:\n%s", want, buf.String())
	}
}

func TestWriteOpenMetricsEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty registry produced output: %q", buf.String())
	}
	mustValidate(t, buf.Bytes())
}

func TestWriteOpenMetricsSpecialValues(t *testing.T) {
	r := NewRegistry()
	r.Gauge("inf.gauge").Set(math.Inf(1))
	r.RegisterFunc("nan.func", "", func() float64 { return math.NaN() })
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, buf.Bytes())
	out := buf.String()
	if !strings.Contains(out, "inf_gauge +Inf") || !strings.Contains(out, "nan_func NaN") {
		t.Errorf("special values mis-rendered:\n%s", out)
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := fixedRegistry()
	srv := httptest.NewServer(MetricsHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, body)
	if !strings.Contains(string(body), "sim_engine_events_total 1234") {
		t.Errorf("scrape missing counter:\n%s", body)
	}
}

func TestValidatorCatchesViolations(t *testing.T) {
	// The validator itself must reject what it claims to reject,
	// otherwise the acceptance test proves nothing.
	cases := map[string]string{
		"undeclared family":  "some_metric 1\n",
		"bad name":           "# TYPE bad-name gauge\nbad-name 1\n",
		"non-monotone hist":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf != count":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"missing sum":        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"counter not _total": "# TYPE c counter\nc 1\n",
		"bad escape":         "# TYPE g gauge\ng{a=\"\\t\"} 1\n",
		"duplicate TYPE":     "# TYPE g gauge\n# TYPE g gauge\ng 1\n",
	}
	for name, doc := range cases {
		if errs := validateExposition([]byte(doc)); len(errs) == 0 {
			t.Errorf("%s: validator accepted invalid exposition:\n%s", name, doc)
		}
	}
}
