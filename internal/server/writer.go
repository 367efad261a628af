package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// writeQueueCap bounds the writes a server holds for its disk at once.
// Producers block while the queue is full, so a disk slower than the
// simulations throttles them instead of growing memory. Coalesced
// snapshot saves take no extra slot.
const writeQueueCap = 256

// writer is a server's write-behind store: one goroutine that owns the
// file writes of cache entries and job snapshots, in submission order, so
// no request waits on the disk. Snapshot writes coalesce per path: a newer
// save replaces a queued one, and a delete turns a queued save into a
// delete, so a job that ends before its snapshot reaches disk writes
// nothing. load sees queued snapshot writes before the disk does.
//
// What is queued is lost if the process dies (a graceful Shutdown flushes
// it): a lost cache entry is recomputed, and a lost snapshot resumes its
// job from an older snapshot or from scratch. Results are deterministic
// either way.
//
// Every failed store write — the writer's own, and the manifests and cache
// entries its server writes inline — is counted in errs, the write_errors
// of /v1/stats, so a full or read-only store does not fail silently.
//
// A nil *writer is valid: close, pending, note and failed then do nothing.
type writer struct {
	errs   atomic.Uint64
	mu     sync.Mutex
	cond   *sync.Cond // signalled on every change of queue, busy or closed
	queue  []*fileWrite
	snaps  map[string]*fileWrite // the latest queued or in-flight snapshot write per path
	busy   *fileWrite            // in flight
	closed bool
	done   chan struct{}
}

// fileWrite publishes blob at path, or removes path when del is set. blob
// must not change once submitted.
type fileWrite struct {
	path string
	blob []byte
	del  bool
}

func newWriter() *writer {
	w := &writer{snaps: make(map[string]*fileWrite), done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

// submit queues op. With coalesce set (job snapshots) op replaces a write
// of the same path still in the queue, so a newer save wins and a delete
// cancels a queued save. After close it writes inline instead.
func (w *writer) submit(op *fileWrite, coalesce bool) {
	w.mu.Lock()
	if coalesce {
		if q := w.snaps[op.path]; q != nil && q != w.busy {
			*q = *op
			w.mu.Unlock()
			return
		}
	}
	for w.held() >= writeQueueCap && !w.closed {
		w.cond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		w.note(op.apply())
		return
	}
	w.queue = append(w.queue, op)
	if coalesce {
		w.snaps[op.path] = op
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// load returns the queued or in-flight snapshot write of path: its blob
// (nil for a removal) and true, or false when none is pending and the disk
// is current.
func (w *writer) load(path string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if q := w.snaps[path]; q != nil {
		return q.blob, true
	}
	return nil, false
}

// pending returns the number of writes queued or in flight.
func (w *writer) pending() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.held()
}

// held counts the writes queued or in flight; call locked.
func (w *writer) held() int {
	if w.busy != nil {
		return len(w.queue) + 1
	}
	return len(w.queue)
}

// close flushes the queue and stops the goroutine; later submissions write
// inline. It is idempotent.
func (w *writer) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
}

func (w *writer) run() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			return
		}
		op := w.queue[0]
		w.queue[0] = nil
		w.queue = w.queue[1:]
		w.busy = op
		w.mu.Unlock()
		w.note(op.apply())
		w.mu.Lock()
		w.busy = nil
		if w.snaps[op.path] == op {
			delete(w.snaps, op.path)
		}
		w.cond.Broadcast()
	}
}

// note counts err, if any, as a failed store write. A failed write is
// not retried: a lost cache entry only costs a recomputation, a lost
// snapshot only a longer resume, a lost manifest the sweep's recovery.
func (w *writer) note(err error) {
	if w != nil && err != nil {
		w.errs.Add(1)
	}
}

// failed returns the number of failed store writes.
func (w *writer) failed() uint64 {
	if w == nil {
		return 0
	}
	return w.errs.Load()
}

// apply performs the write. Removing a file that is already gone is no
// error.
func (op *fileWrite) apply() error {
	if op.del {
		if err := os.Remove(op.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	}
	return writeFileAtomic(op.path, op.blob, "file")
}

// writeFileAtomic publishes blob at path through a temp file and a rename,
// so a crash leaves at most a stray temp file, never a half-written entry.
// A missing parent directory is created.
func writeFileAtomic(path string, blob []byte, what string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("server: creating %s dir: %w", what, err)
		}
		tmp, err = os.CreateTemp(dir, ".tmp-*")
	}
	if err != nil {
		return fmt.Errorf("server: staging %s: %w", what, err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("server: writing %s: %w", what, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: closing %s: %w", what, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: publishing %s: %w", what, err)
	}
	return nil
}
