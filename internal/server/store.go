package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Manifest is the durable record of one submitted sweep — everything the
// next boot needs to re-plan it. The request, not the plan, is persisted:
// plans are deterministic functions of requests, so re-planning on recovery
// reproduces the identical job list (and therefore identical cache keys).
type Manifest struct {
	// ID is the sweep's content-derived identifier.
	ID string `json:"id"`
	// Request is the submission, verbatim.
	Request SweepRequest `json:"request"`
	// Done records that every job completed; done sweeps are recovered as
	// pure cache replays.
	Done bool `json:"done"`
}

// Store persists what must survive a restart: sweep manifests and the
// per-job checkpoint snapshots of in-flight cells. A nil *Store (no
// persistence directory configured) is valid and makes every method a
// no-op, so the serving paths never branch on persistence being enabled.
// Manifests are written before SaveManifest returns; snapshot writes go
// through the store's write-behind writer, which its Server shares with
// the result cache and closes on Shutdown.
type Store struct {
	dir string
	w   *writer
}

// newStore opens (creating if needed) a store rooted at dir and starts its
// writer; dir "" returns a nil store, meaning no persistence.
func newStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, nil
	}
	for _, sub := range []string{"sweeps", "snaps"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("server: creating store dir: %w", err)
		}
	}
	return &Store{dir: dir, w: newWriter()}, nil
}

// SaveManifest durably records a sweep submission (temp file + rename, so
// a crash never leaves a half-written manifest).
func (s *Store) SaveManifest(m Manifest) error {
	if s == nil {
		return nil
	}
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("server: encoding manifest: %w", err)
	}
	return writeFileAtomic(filepath.Join(s.dir, "sweeps", m.ID+".json"), b, "manifest")
}

// LoadManifests returns every persisted sweep manifest, unreadable entries
// skipped (a half-written temp file must not block boot).
func (s *Store) LoadManifests() []Manifest {
	if s == nil {
		return nil
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "sweeps"))
	if err != nil {
		return nil
	}
	var out []Manifest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, "sweeps", e.Name()))
		if err != nil {
			continue
		}
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil || m.ID == "" {
			continue
		}
		out = append(out, m)
	}
	return out
}

// SaveJobSnapshot queues the latest checkpoint segment of an in-flight
// job under its cache key, replacing any earlier segment. blob must not
// change afterwards.
func (s *Store) SaveJobSnapshot(key string, blob []byte) {
	if s == nil {
		return
	}
	s.w.submit(&fileWrite{path: s.snapPath(key), blob: blob}, true)
}

// LoadJobSnapshot returns the persisted snapshot blob for a job, or nil. A
// save or delete still queued for the disk is seen first.
func (s *Store) LoadJobSnapshot(key string) []byte {
	if s == nil {
		return nil
	}
	if b, ok := s.w.load(s.snapPath(key)); ok {
		return b
	}
	b, err := os.ReadFile(s.snapPath(key))
	if err != nil {
		return nil
	}
	return b
}

// DeleteJobSnapshot removes a job's snapshot once the job has completed
// (its result now lives in the cache), cancelling a save still queued.
func (s *Store) DeleteJobSnapshot(key string) {
	if s == nil {
		return
	}
	s.w.submit(&fileWrite{path: s.snapPath(key), del: true}, true)
}

func (s *Store) snapPath(key string) string {
	return filepath.Join(s.dir, "snaps", key+".snap")
}
