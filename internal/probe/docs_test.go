package probe

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentedMetricNames: every probe.server.* name in a fenced
// block or an inline code span of docs/PROBED.md or
// docs/OBSERVABILITY.md is a metric Server.Metrics() holds, and every
// "# TYPE probe_server_..." line there is one its OpenMetrics
// exposition prints.
func TestDocumentedMetricNames(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	have := map[string]bool{}
	for _, p := range srv.Metrics().Snapshot() {
		have[p.Name] = true
	}
	var exp bytes.Buffer
	if err := srv.Metrics().WriteOpenMetrics(&exp); err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	for _, line := range strings.Split(exp.String(), "\n") {
		types[line] = strings.HasPrefix(line, "# TYPE ")
	}

	name := regexp.MustCompile(`probe\.server\.[a-z0-9_]+`)
	for _, doc := range []string{"PROBED.md", "OBSERVABILITY.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", "docs", doc))
		if err != nil {
			t.Fatal(err)
		}
		named := 0
		for _, code := range codeSpans(string(text)) {
			for _, n := range name.FindAllString(code, -1) {
				named++
				if !have[n] {
					t.Errorf("docs/%s names %s, which Server.Metrics() does not hold", doc, n)
				}
			}
			for _, line := range strings.Split(code, "\n") {
				if !strings.HasPrefix(line, "# TYPE probe_server_") {
					continue
				}
				named++
				if !types[line] {
					t.Errorf("docs/%s shows %q, which the exposition does not print", doc, line)
				}
			}
		}
		if named == 0 {
			t.Errorf("docs/%s shows no probe server metric in code", doc)
		}
	}
}

// codeSpans returns the fenced blocks and the inline code spans of a
// Markdown text.
func codeSpans(md string) []string {
	var out []string
	for i, part := range strings.Split(md, "```") {
		if i%2 == 1 {
			out = append(out, part)
			continue
		}
		for j, span := range strings.Split(part, "`") {
			if j%2 == 1 {
				out = append(out, span)
			}
		}
	}
	return out
}
