package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// idleWriter returns a writer whose goroutine has not started, so what a
// test queues stays queued until it calls go w.run().
func idleWriter() *writer {
	w := &writer{snaps: make(map[string]*fileWrite), done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func TestWriterReadYourWrites(t *testing.T) {
	w := idleWriter()
	st := &Store{dir: t.TempDir(), w: w}
	if err := os.MkdirAll(filepath.Join(st.dir, "snaps"), 0o755); err != nil {
		t.Fatal(err)
	}
	st.SaveJobSnapshot("k", []byte("one"))
	if got := st.LoadJobSnapshot("k"); string(got) != "one" {
		t.Fatalf("queued save reads back %q, want %q", got, "one")
	}
	st.SaveJobSnapshot("k", []byte("two"))
	if got := st.LoadJobSnapshot("k"); string(got) != "two" {
		t.Fatalf("second queued save reads back %q, want %q", got, "two")
	}
	if n := w.pending(); n != 1 {
		t.Fatalf("two saves of one key queue %d writes, want 1", n)
	}
	if _, err := os.Stat(st.snapPath("k")); !os.IsNotExist(err) {
		t.Fatalf("an idle writer touched the disk: %v", err)
	}
	go w.run()
	w.close()
	b, err := os.ReadFile(st.snapPath("k"))
	if err != nil || string(b) != "two" {
		t.Fatalf("disk holds %q (%v), want the latest save %q", b, err, "two")
	}
	if got := st.LoadJobSnapshot("k"); string(got) != "two" {
		t.Fatalf("flushed save reads back %q", got)
	}
}

func TestWriterDeleteCancelsPendingSave(t *testing.T) {
	w := idleWriter()
	st := &Store{dir: t.TempDir(), w: w}
	snaps := filepath.Join(st.dir, "snaps")
	if err := os.MkdirAll(snaps, 0o755); err != nil {
		t.Fatal(err)
	}
	st.SaveJobSnapshot("k", []byte("segment"))
	st.DeleteJobSnapshot("k")
	if got := st.LoadJobSnapshot("k"); got != nil {
		t.Fatalf("deleted snapshot still reads back %q", got)
	}
	if n := w.pending(); n != 1 {
		t.Fatalf("a save and its delete queue %d writes, want 1", n)
	}
	go w.run()
	w.close()
	entries, err := os.ReadDir(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("a snapshot deleted before it reached disk left %d files", len(entries))
	}
}

// TestShutdownFlushesWrites pins that Shutdown returns only once every
// queued cache entry and snapshot is on disk.
func TestShutdownFlushesWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const entries = 3 * writeQueueCap
	for i := 0; i < entries; i++ {
		key := fmt.Sprintf("%064x", i)
		if err := s.cache.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	s.store.SaveJobSnapshot("job", []byte("state"))
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().PendingWrites; n != 0 {
		t.Fatalf("%d writes pending after Shutdown", n)
	}
	for i := 0; i < entries; i++ {
		key := fmt.Sprintf("%064x", i)
		b, err := os.ReadFile(s.cache.path(key))
		if err != nil || !bytes.Equal(b, []byte(key)) {
			t.Fatalf("cache entry %d not on disk after Shutdown: %q, %v", i, b, err)
		}
	}
	if b, err := os.ReadFile(s.store.snapPath("job")); err != nil || string(b) != "state" {
		t.Fatalf("snapshot not on disk after Shutdown: %q, %v", b, err)
	}
}

// TestWriterQueueBounded pins that a producer outpacing the disk blocks
// at writeQueueCap queued writes instead of growing the queue.
func TestWriterQueueBounded(t *testing.T) {
	w := idleWriter()
	c := &Cache{mem: make(map[string][]byte), dir: t.TempDir(), w: w}
	const entries = 4 * writeQueueCap
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < entries; i++ {
			key := fmt.Sprintf("%064x", i)
			c.Put(key, []byte(key))
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for w.pending() < writeQueueCap {
		if time.Now().After(deadline) {
			t.Fatalf("queue stuck at %d writes", w.pending())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("producer finished with the writer idle: the queue is unbounded")
	case <-time.After(20 * time.Millisecond):
	}
	if n := w.pending(); n != writeQueueCap {
		t.Fatalf("idle writer holds %d writes, bound %d", n, writeQueueCap)
	}

	maxSeen := 0
	go w.run()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		maxSeen = max(maxSeen, w.pending())
	}
	w.close()
	if maxSeen > writeQueueCap {
		t.Fatalf("queue reached %d writes, bound %d", maxSeen, writeQueueCap)
	}
	for i := 0; i < entries; i++ {
		if _, err := os.Stat(c.path(fmt.Sprintf("%064x", i))); err != nil {
			t.Fatalf("entry %d never reached disk: %v", i, err)
		}
	}
}

// TestWriteErrorsCounted pins that failed store writes show as
// write_errors on /v1/stats. A regular file where the cache, snapshot and
// manifest directories should be fails every write with ENOTDIR, even as
// root; removing a snapshot that was never written is no error.
func TestWriteErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, Dir: dir})
	writeErrors := func() uint64 {
		t.Helper()
		waitIdle(t, s)
		var st Stats
		if err := json.Unmarshal(do(t, s, http.MethodGet, "/v1/stats", "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.WriteErrors
	}
	s.store.DeleteJobSnapshot("absent")
	if n := writeErrors(); n != 0 {
		t.Fatalf("removing an absent snapshot counted %d write errors", n)
	}
	for _, sub := range []string{"cas", "snaps", "sweeps"} {
		p := filepath.Join(dir, sub)
		if err := os.RemoveAll(p); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if w := do(t, s, http.MethodPost, "/v1/runs", `{"protocol":"sync","spec":{"n":100,"k":2,"seed":1}}`); w.Code != http.StatusOK {
		t.Fatalf("run: status %d (%s)", w.Code, w.Body)
	}
	if n := writeErrors(); n != 1 {
		t.Fatalf("a run whose cache entry cannot be written counted %d write errors, want 1", n)
	}
	s.store.SaveJobSnapshot("job", []byte("state"))
	if n := writeErrors(); n != 2 {
		t.Fatalf("an unwritable snapshot brought the count to %d, want 2", n)
	}
	// The submission's manifest, the cell's cache entry and the manifest's
	// Done bit.
	if w := do(t, s, http.MethodPost, "/v1/sweeps?async=1", `{"protocol":"sync","base":{"n":100,"k":2,"seed":1},"reps":1}`); w.Code != http.StatusAccepted {
		t.Fatalf("sweep: status %d (%s)", w.Code, w.Body)
	}
	if n := writeErrors(); n != 5 {
		t.Fatalf("a one-cell sweep brought the count to %d, want 5", n)
	}
}
