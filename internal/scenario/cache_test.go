package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// cacheStressSpec is the one spec every stress writer races on.
func cacheStressSpec() (Spec, string, json.RawMessage) {
	sp := Spec{Experiment: "test-ok", Seed: 42, DurationS: 1}
	result := json.RawMessage(`{"seed":42,"value":"stress"}`)
	return sp, sp.Hash(), result
}

// TestCacheStressChild is the re-exec helper for the cross-process
// test below: it hammers Put on the shared hash until its deadline.
// It only runs when the parent points it at a cache directory.
func TestCacheStressChild(t *testing.T) {
	dir := os.Getenv("CCAC_CACHE_STRESS_DIR")
	if dir == "" {
		t.Skip("helper for TestCacheCrossProcessAtomicity")
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp, hash, result := cacheStressSpec()
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := c.Put(sp, hash, result); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheCrossProcessAtomicity pins the cache's atomic-rename
// contract across both concurrency domains at once: goroutines in this
// process and a forked child process all Put the same spec hash while
// readers poll Get. Readers must never observe a torn or partial entry
// — every Get is either a miss or the exact canonical result — and the
// dust settles to exactly one valid entry with no stray temp files.
func TestCacheCrossProcessAtomicity(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp, hash, result := cacheStressSpec()

	// The forked process: this test binary re-run with only the helper
	// enabled, pointed at the same directory.
	child := exec.Command(os.Args[0], "-test.run=TestCacheStressChild$", "-test.v=false")
	child.Env = append(os.Environ(), "CCAC_CACHE_STRESS_DIR="+dir)
	var childOut bytes.Buffer
	child.Stdout, child.Stderr = &childOut, &childOut
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	time.AfterFunc(500*time.Millisecond, func() { close(stop) })
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// In-process writers racing the child.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Put(sp, hash, result); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Readers: a hit must always be the exact canonical result. Each
	// reader opens its own Cache value, like a separate sweep would.
	hits := 0
	var hitsMu sync.Mutex
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := &Cache{Dir: dir}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := rc.Get(hash); ok {
					if !bytes.Equal(got, result) {
						errs <- &tornReadError{got: got}
						return
					}
					hitsMu.Lock()
					hits++
					hitsMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := child.Wait(); err != nil {
		t.Fatalf("child stress process: %v\n%s", err, childOut.String())
	}
	if hits == 0 {
		t.Fatal("readers never hit; the stress never exercised Get")
	}

	// Exactly one valid entry remains, readable, with no temp litter.
	got, ok := c.Get(hash)
	if !ok || !bytes.Equal(got, result) {
		t.Fatalf("final Get = (%s, %v), want the canonical result", got, ok)
	}
	entries, temps := 0, 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch {
		case filepath.Ext(path) == ".json":
			entries++
		case strings.Contains(filepath.Base(path), ".tmp"):
			temps++
		}
		return nil
	})
	if entries != 1 {
		t.Fatalf("%d cache entries after the stress, want exactly 1", entries)
	}
	if temps != 0 {
		t.Fatalf("%d temp files left behind; renames are not cleaning up", temps)
	}
}

type tornReadError struct{ got json.RawMessage }

func (e *tornReadError) Error() string {
	return "reader observed a torn cache entry: " + string(e.got)
}
