package main

import (
	"bufio"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/scenario"
)

func subcommandFlagSets() map[string]*flag.FlagSet {
	sweep, _ := sweepFlags()
	hunt, _ := huntFlags()
	census, _ := censusRunFlags()
	return map[string]*flag.FlagSet{"sweep": sweep, "hunt": hunt, "census run": census}
}

// documentedFlagSets adds the subcommands that never had -seq/-fork.
func documentedFlagSets() map[string]*flag.FlagSet {
	sets := subcommandFlagSets()
	sets["run"], _ = runFlags()
	sets["census gen"], _ = censusGenFlags()
	sets["census merge"], _ = censusMergeFlags()
	return sets
}

// TestAliasFlagsAreGone: -seq was -workers 1 spelled twice, and -fork
// a wrapper over -shard k/M + merge, which stay; neither may come back.
func TestAliasFlagsAreGone(t *testing.T) {
	for sub, fs := range subcommandFlagSets() {
		for _, name := range []string{"seq", "fork"} {
			if fs.Lookup(name) != nil {
				t.Errorf("ccac %s defines -%s", sub, name)
			}
		}
		if fs.Lookup("workers") == nil {
			t.Errorf("ccac %s lost -workers", sub)
		}
	}
}

var (
	docSubcommand = regexp.MustCompile(`\bccac (sweep|hunt|run|census run|census gen|census merge|[a-z]+)\b`)
	docFlag       = regexp.MustCompile(`(?:^|[\s\[|])-([a-z][a-z0-9-]*)`)
	// docPipe is a shell pipe into another command (not the "|" of a
	// usage line's [-a | -b] or <file|->): its flags are not ccac's.
	docPipe = regexp.MustCompile(`\s\|\s+[^-\s]`)
)

// docLine is one line of a scanned file; inBlock marks the lines of a
// usage or example block.
type docLine struct {
	num     int
	text    string
	inBlock bool
}

// docLines reads a file and marks its usage and example blocks: the
// fenced blocks of a Markdown file, or the tab-indented comment blocks
// of a Go file's header (returned without the comment marker).
func docLines(t *testing.T, path string) []docLine {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	goFile := strings.HasSuffix(path, ".go")
	fenced := false
	var out []docLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		l := docLine{num: ln, text: sc.Text()}
		switch {
		case goFile:
			l.inBlock = strings.HasPrefix(l.text, "//\t")
			l.text = strings.TrimPrefix(l.text, "//")
		case strings.HasPrefix(strings.TrimSpace(l.text), "```"):
			fenced = !fenced
		default:
			l.inBlock = fenced
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// docPaths lists the scanned files: README.md, EXPERIMENTS.md,
// DESIGN.md, docs/*.md and this command's source files.
func docPaths(t *testing.T) []string {
	root := filepath.Join("..", "..")
	paths := []string{
		filepath.Join(root, "README.md"), filepath.Join(root, "EXPERIMENTS.md"),
		filepath.Join(root, "DESIGN.md"), "main.go", "census.go", "hunt.go",
	}
	guides, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(paths, guides...)
}

// TestDocumentedFlagsAreDefined reads every fenced block and usage
// header of docPaths: every flag written after `ccac run`, `ccac
// sweep`, `ccac hunt` or `ccac census gen|run|merge` (on that line or
// its continuation lines) must be one the subcommand defines.
func TestDocumentedFlagsAreDefined(t *testing.T) {
	sets := documentedFlagSets()
	paths := docPaths(t)
	checked := 0
	for _, path := range paths {
		var fs *flag.FlagSet
		continued := false
		for _, l := range docLines(t, path) {
			if !l.inBlock {
				fs, continued = nil, false
				continue
			}
			line := l.text
			trimmed := strings.TrimSpace(line)
			if m := docSubcommand.FindStringSubmatchIndex(line); m != nil {
				fs = sets[line[m[2]:m[3]]] // nil for the subcommands without flags
				line = line[m[1]:]
			} else if !continued && !strings.HasPrefix(trimmed, "-") && !strings.HasPrefix(trimmed, "[-") {
				fs = nil
			}
			continued = strings.HasSuffix(trimmed, `\`)
			if fs == nil {
				continue
			}
			if cut := docPipe.FindStringIndex(line); cut != nil {
				line = line[:cut[0]]
				continued = false
			}
			for _, m := range docFlag.FindAllStringSubmatch(line, -1) {
				checked++
				if fs.Lookup(m[1]) == nil && m[1] != "h" {
					t.Errorf("%s:%d names -%s, which %s does not define", path, l.num, m[1], fs.Name())
				}
			}
		}
	}
	t.Logf("checked %d documented flags in %d files", checked, len(paths))
	if checked < 60 {
		t.Errorf("found only %d documented flags; the usage blocks moved or the scan broke", checked)
	}
}

var docRun = regexp.MustCompile(`\bccac run ([a-z][a-z0-9_-]*)`)

// TestDocumentedExperimentsAreRegistered: every `ccac run <name>` in a
// fenced block or usage header of docPaths names a registered
// experiment, so the walkthrough lines stay runnable.
func TestDocumentedExperimentsAreRegistered(t *testing.T) {
	checked := 0
	for _, path := range docPaths(t) {
		for _, l := range docLines(t, path) {
			if !l.inBlock {
				continue
			}
			for _, m := range docRun.FindAllStringSubmatch(l.text, -1) {
				checked++
				if _, err := scenario.Lookup(m[1]); err != nil {
					t.Errorf("%s:%d: %v", path, l.num, err)
				}
			}
		}
	}
	t.Logf("checked %d documented runs", checked)
	if checked < 20 {
		t.Errorf("found only %d documented runs; the usage blocks moved or the scan broke", checked)
	}
}

// TestSignalContextCancelsOnSIGTERM: `kill` on a long sweep must cancel
// the context (so the partial result array is still written) instead
// of killing the process.
func TestSignalContextCancelsOnSIGTERM(t *testing.T) {
	ctx := signalContext()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the sweep context")
	}
}
