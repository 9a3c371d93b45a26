package main

import (
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// daemonProbe instruments a daemon from outside: its filesystem seam,
// its pre-attempt hook and its HTTP handler.  Every event here is a
// millisecond-scale I/O or HTTP step, so each one is timed.
type daemonProbe struct {
	fs *fsProbe

	mu        sync.Mutex
	attemptAt map[string]time.Time // scenario hash → attempt start
	handlerNs int64
	handled   int
}

func newDaemonProbe(stateDir string) *daemonProbe {
	return &daemonProbe{
		fs: &fsProbe{
			wal:        filepath.Join(stateDir, "journal.wal"),
			resultsDir: filepath.Join(stateDir, "results"),
			putStart:   map[string]time.Time{},
			createdAt:  map[string]time.Time{},
		},
		attemptAt: map[string]time.Time{},
	}
}

// beforeAttempt is the serve.Hooks.BeforeAttempt probe: it only records
// when the simulation of a scenario hash starts.
func (p *daemonProbe) beforeAttempt(_ context.Context, hash string, _ int) error {
	now := time.Now()
	p.mu.Lock()
	p.attemptAt[hash] = now
	p.mu.Unlock()
	return nil
}

// wrap times the daemon's handler around every request.
func (p *daemonProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		p.mu.Lock()
		p.handlerNs += int64(d)
		p.handled++
		p.mu.Unlock()
	})
}

// fsProbe wraps the daemon's filesystem (startDaemon sets inner) and
// classifies every operation by path:
// journal appends and syncs, journal compactions (a rename onto the
// journal), and result-store puts (temp file create → rename).
type fsProbe struct {
	inner      journal.FS
	wal        string
	resultsDir string

	mu           sync.Mutex
	walWrites    []time.Duration
	walSyncs     []time.Duration
	walBytes     int64
	compactions  int
	putStart     map[string]time.Time // result temp path → create time
	puts         []time.Duration
	resultSyncs  int
	resultDirSyn []time.Duration
	createdAt    map[string]time.Time // scenario hash → result create time
}

func (f *fsProbe) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *fsProbe) OpenAppend(path string) (journal.File, error) {
	file, err := f.inner.OpenAppend(path)
	if err != nil || path != f.wal {
		return file, err
	}
	return &walFile{File: file, p: f}, nil
}

func (f *fsProbe) Create(path string) (journal.File, error) {
	now := time.Now()
	file, err := f.inner.Create(path)
	if err != nil || filepath.Dir(path) != f.resultsDir {
		return file, err
	}
	hash := strings.TrimSuffix(filepath.Base(path), ".json.tmp")
	f.mu.Lock()
	f.putStart[path] = now
	f.createdAt[hash] = now
	f.mu.Unlock()
	return &resultFile{File: file, p: f}, nil
}

func (f *fsProbe) ReadFile(path string) ([]byte, error) { return f.inner.ReadFile(path) }

func (f *fsProbe) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *fsProbe) Rename(oldpath, newpath string) error {
	err := f.inner.Rename(oldpath, newpath)
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if newpath == f.wal {
		f.compactions++
	}
	if t0, ok := f.putStart[oldpath]; ok {
		f.puts = append(f.puts, now.Sub(t0))
		delete(f.putStart, oldpath)
	}
	return err
}

func (f *fsProbe) Remove(path string) error { return f.inner.Remove(path) }

func (f *fsProbe) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.inner.SyncDir(dir)
	if dir == f.resultsDir {
		d := time.Since(t0)
		f.mu.Lock()
		f.resultDirSyn = append(f.resultDirSyn, d)
		f.mu.Unlock()
	}
	return err
}

// walFile times the journal's appends and syncs.
type walFile struct {
	journal.File
	p *fsProbe
}

func (w *walFile) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := w.File.Write(b)
	d := time.Since(t0)
	w.p.mu.Lock()
	w.p.walWrites = append(w.p.walWrites, d)
	w.p.walBytes += int64(n)
	w.p.mu.Unlock()
	return n, err
}

func (w *walFile) Sync() error {
	t0 := time.Now()
	err := w.File.Sync()
	d := time.Since(t0)
	w.p.mu.Lock()
	w.p.walSyncs = append(w.p.walSyncs, d)
	w.p.mu.Unlock()
	return err
}

// resultFile counts the result store's file syncs.
type resultFile struct {
	journal.File
	p *fsProbe
}

func (r *resultFile) Sync() error {
	err := r.File.Sync()
	r.p.mu.Lock()
	r.p.resultSyncs++
	r.p.mu.Unlock()
	return err
}
