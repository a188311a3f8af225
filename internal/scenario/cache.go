package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Cache is a content-addressed on-disk result store: one JSON file per
// spec hash, laid out as <dir>/<hh>/<hash>.json with hh the first two
// hex digits (keeps directories small on big sweeps). Only successful
// runs are stored, so a transient failure never poisons later sweeps.
// Entries embed the spec that produced them; Get verifies the stored
// spec re-hashes to the requested key before trusting the entry.
type Cache struct {
	Dir string
}

// NewCache returns a cache rooted at dir, creating it if needed.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: cache: %w", err)
	}
	return &Cache{Dir: dir}, nil
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.Dir, hash[:2], hash+".json")
}

// cacheEntry is the stored form of a completed run.
type cacheEntry struct {
	Spec   Spec            `json:"spec"`
	Hash   string          `json:"hash"`
	Result json.RawMessage `json:"result"`
}

// Get returns the cached canonical result for the hash, or ok=false on
// a miss. A corrupt or mismatched entry reads as a miss (the runner
// recomputes and overwrites it).
func (c *Cache) Get(hash string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	b, err := os.ReadFile(c.path(hash))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if json.Unmarshal(b, &e) != nil {
		return nil, false
	}
	if e.Hash != hash || e.Spec.Hash() != hash || len(e.Result) == 0 {
		return nil, false
	}
	return e.Result, true
}

// Put stores a completed run. The write is atomic (temp file + rename)
// so concurrent workers racing on the same hash still leave a whole
// entry behind.
func (c *Cache) Put(sp Spec, hash string, result json.RawMessage) error {
	if c == nil {
		return nil
	}
	b, err := CanonicalJSON(cacheEntry{Spec: sp, Hash: hash, Result: result})
	if err != nil {
		return err
	}
	p := c.path(hash)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("scenario: cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+hash+".tmp*")
	if err != nil {
		return fmt.Errorf("scenario: cache: %w", err)
	}
	_, werr := tmp.Write(append(b, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("scenario: cache write: %w", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("scenario: cache: %w", err)
	}
	return nil
}
