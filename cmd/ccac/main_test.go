package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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

// documentedFlagSets adds the subcommands that never had -seq/-fork,
// and the mlabgen and mlabanalyze binaries.
func documentedFlagSets(t *testing.T) map[string]*flag.FlagSet {
	sets := subcommandFlagSets()
	sets["run"], _ = runFlags()
	sets["census gen"], _ = censusGenFlags()
	sets["census merge"], _ = censusMergeFlags()
	for _, bin := range []string{"mlabgen", "mlabanalyze"} {
		sets[bin] = sourceFlagSet(t, bin)
	}
	return sets
}

// sourceFlagSet rebuilds the flags of the binary cmd/<bin>, which
// defines them on the flag package's command line inside run(), from
// its source: every flag.Xxx("name", ...) call in main.go defines
// -name.
func sourceFlagSet(t *testing.T, bin string) *flag.FlagSet {
	path := filepath.Join("..", bin, "main.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet(bin, flag.ContinueOnError)
	defined := 0
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			fs.Bool(name, false, "")
			defined++
		}
		return true
	})
	if defined == 0 {
		t.Fatalf("%s: found no flag definitions", path)
	}
	return fs
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
	docSubcommand = regexp.MustCompile(`\b(?:ccac (sweep|hunt|run|census run|census gen|census merge|[a-z]+)|(mlabgen|mlabanalyze))\b`)
	docFlag       = regexp.MustCompile(`(?:^|[\s\[|])-([a-z][a-z0-9-]*)`)
	// docPipe is a shell pipe into another command (not the "|" of a
	// usage line's [-a | -b] or <file|->): each stage of a pipeline is
	// its own command.
	docPipe = regexp.MustCompile(`\s\|\s+[^-\s]`)
)

// pipeStages splits a line at its shell pipes.
func pipeStages(line string) []string {
	var stages []string
	start := 0
	for _, m := range docPipe.FindAllStringIndex(line, -1) {
		stages = append(stages, line[start:m[0]])
		start = m[0] + 2 // past the whitespace and the "|"
	}
	return append(stages, line[start:])
}

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
// DESIGN.md, docs/*.md, this command's source files and the mlabgen
// and mlabanalyze headers.
func docPaths(t *testing.T) []string {
	root := filepath.Join("..", "..")
	paths := []string{
		filepath.Join(root, "README.md"), filepath.Join(root, "EXPERIMENTS.md"),
		filepath.Join(root, "DESIGN.md"), "main.go", "census.go", "hunt.go",
		filepath.Join("..", "mlabgen", "main.go"), filepath.Join("..", "mlabanalyze", "main.go"),
	}
	guides, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(paths, guides...)
}

// TestDocumentedFlagsAreDefined reads every fenced block and usage
// header of docPaths: every flag written after `ccac run`, `ccac
// sweep`, `ccac hunt`, `ccac census gen|run|merge`, `mlabgen` or
// `mlabanalyze` (on that line or its continuation lines, up to a
// shell pipe) must be one the command defines.
func TestDocumentedFlagsAreDefined(t *testing.T) {
	sets := documentedFlagSets(t)
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
			trimmed := strings.TrimSpace(l.text)
			if !continued && !strings.HasPrefix(trimmed, "-") && !strings.HasPrefix(trimmed, "[-") {
				fs = nil
			}
			continued = strings.HasSuffix(trimmed, `\`)
			for i, stage := range pipeStages(l.text) {
				if i > 0 {
					fs = nil
				}
				if m := docSubcommand.FindStringSubmatchIndex(stage); m != nil {
					g := 2 // a ccac subcommand
					if m[g] < 0 {
						g = 4 // an mlab binary
					}
					name := stage[m[g]:m[g+1]]
					fs = sets[name] // nil for the subcommands without flags
					stage = stage[m[1]:]
				}
				if fs == nil {
					continue
				}
				for _, m := range docFlag.FindAllStringSubmatch(stage, -1) {
					checked++
					if fs.Lookup(m[1]) == nil && m[1] != "h" {
						t.Errorf("%s:%d names -%s, which %s does not define", path, l.num, m[1], fs.Name())
					}
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

// TestRunRejectsUnrunnableSpecs: a spec value the cell cannot run — a
// round trip under two nanoseconds, a negative one, a buffer that is
// not a number — exits 1 with one error line, instead of running the
// default link or panicking in Spec.Hash. Each case runs `ccac run` in
// a child process, since it exits.
func TestRunRejectsUnrunnableSpecs(t *testing.T) {
	if args := os.Getenv("CCAC_RUN_ARGS"); args != "" {
		cmdRun(strings.Fields(args))
		os.Exit(0)
	}
	for _, args := range []string{
		"duel -duration 1s -rtt 1ns",
		"duel -duration 1s -rtt -5ms",
		"duel -duration 1s -buffer NaN",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRunRejectsUnrunnableSpecs$")
		cmd.Env = append(os.Environ(), "CCAC_RUN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("ccac run %s: %v, want exit status 1\n%s", args, err, out)
		}
		if !bytes.HasPrefix(out, []byte("ccac: ")) || bytes.Count(out, []byte("\n")) != 1 || bytes.Contains(out, []byte("panic:")) {
			t.Errorf("ccac run %s printed %q, want one error line", args, out)
		}
	}
}
