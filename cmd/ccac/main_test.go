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
)

func subcommandFlagSets() map[string]*flag.FlagSet {
	sweep, _ := sweepFlags()
	hunt, _ := huntFlags()
	census, _ := censusRunFlags()
	return map[string]*flag.FlagSet{"sweep": sweep, "hunt": hunt, "census run": census}
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
	docSubcommand = regexp.MustCompile(`\bccac (sweep|hunt|census run|[a-z]+)\b`)
	docFlag       = regexp.MustCompile(`(?:^|[\s\[|])-([a-z][a-z0-9-]*)`)
)

// TestDocumentedFlagsAreDefined reads the fenced usage and example
// blocks of the three CLI guides: every flag written after `ccac
// sweep`, `ccac hunt` or `ccac census run` (on that line or its
// continuation lines) must be one the subcommand defines.
func TestDocumentedFlagsAreDefined(t *testing.T) {
	sets := subcommandFlagSets()
	checked := 0
	for _, doc := range []string{"SCENARIOS.md", "CENSUS.md", "HUNTING.md"} {
		f, err := os.Open(filepath.Join("..", "..", "docs", doc))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var fenced, continued bool
		var fs *flag.FlagSet
		sc := bufio.NewScanner(f)
		for ln := 1; sc.Scan(); ln++ {
			line := sc.Text()
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "```") {
				fenced, fs, continued = !fenced, nil, false
				continue
			}
			if !fenced {
				continue
			}
			if m := docSubcommand.FindStringSubmatch(line); m != nil {
				fs = sets[m[1]] // nil for the subcommands not under test
			} else if !continued && !strings.HasPrefix(trimmed, "-") && !strings.HasPrefix(trimmed, "[-") {
				fs = nil
			}
			continued = strings.HasSuffix(trimmed, `\`)
			if fs == nil {
				continue
			}
			for _, m := range docFlag.FindAllStringSubmatch(line, -1) {
				checked++
				if fs.Lookup(m[1]) == nil {
					t.Errorf("docs/%s:%d names -%s, which %s does not define", doc, ln, m[1], fs.Name())
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if checked < 20 {
		t.Errorf("found only %d documented flags; the usage blocks moved or the scan broke", checked)
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
