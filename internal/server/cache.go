package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"plurality"
)

// jobKey returns the content address of one unit of work: hex SHA-256 over
// plurality.EngineEpoch, a domain tag ("cell" for sweep jobs, "run" for
// single runs — the two store different value encodings), the protocol
// name and the spec's canonical bytes. The replication seed is already
// folded into the spec by SweepPlan.JobSpec, so (protocol, spec) alone
// identifies the job under one epoch; equal keys imply equal Results,
// which is what makes the cache sound. A key draws no random graph, so a
// spec whose graph draw fails has one and fails in compute, uncached.
func jobKey(domain, protocol string, spec plurality.Spec) (string, error) {
	cb, err := spec.CanonicalBytes()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var lp [8]byte
	binary.LittleEndian.PutUint64(lp[:], plurality.EngineEpoch)
	h.Write(lp[:])
	binary.LittleEndian.PutUint64(lp[:], uint64(len(domain)))
	h.Write(lp[:])
	h.Write([]byte(domain))
	binary.LittleEndian.PutUint64(lp[:], uint64(len(protocol)))
	h.Write(lp[:])
	h.Write([]byte(protocol))
	h.Write(cb)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// encodeMetrics renders a job's measurement map as its cached value.
// json.Marshal sorts map keys and renders floats in shortest-round-trip
// form, so the encoding is deterministic and lossless — a decoded map
// aggregates into byte-identical cells.
func encodeMetrics(m map[string]float64) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("server: encoding metrics: %w", err)
	}
	return b, nil
}

// decodeMetrics parses a cached job value.
func decodeMetrics(b []byte) (map[string]float64, error) {
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("server: corrupt cached metrics: %w", err)
	}
	return m, nil
}

// Cache is the content-addressed result store: immutable blobs under hex
// SHA-256 keys, held in memory and (when dir is set) mirrored to disk so
// results survive restarts. Writes go through a temp file + rename, so a
// crash can truncate at most a temp file, never a published entry; a blob,
// once published, is never rewritten — content addresses make overwrites
// meaningless. A Cache built by NewCache writes its disk copy before Put
// returns; a Server's cache hands it to the server's write-behind writer.
type Cache struct {
	mu  sync.RWMutex
	mem map[string][]byte
	dir string  // "" means memory-only
	w   *writer // nil writes synchronously
}

// NewCache opens (creating if needed) a cache rooted at dir; dir "" builds
// a memory-only cache.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating cache dir: %w", err)
		}
	}
	return &Cache{mem: make(map[string][]byte), dir: dir}, nil
}

func (c *Cache) path(key string) string {
	// Shard by key prefix so no single directory accumulates every entry.
	return filepath.Join(c.dir, key[:2], key[2:])
}

// Get returns the blob stored under key. Disk entries from earlier boots
// are promoted into memory on first hit.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.RLock()
	b, ok := c.mem[key]
	c.mu.RUnlock()
	if ok {
		return b, true
	}
	if c.dir == "" || len(key) < 3 {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	c.mem[key] = b
	c.mu.Unlock()
	return b, true
}

// Put publishes blob under key: in memory at once, so a Get right after
// it hits, and on disk before it returns or, in a Server, in the
// background. The blob is copied, so callers may reuse their buffer.
func (c *Cache) Put(key string, blob []byte) error {
	cp := append([]byte(nil), blob...)
	c.mu.Lock()
	_, exists := c.mem[key]
	if !exists {
		c.mem[key] = cp
	}
	c.mu.Unlock()
	if exists || c.dir == "" || len(key) < 3 {
		return nil
	}
	if c.w != nil {
		c.w.submit(&fileWrite{path: c.path(key), blob: cp}, false)
		return nil
	}
	return writeFileAtomic(c.path(key), cp, "cache entry")
}
