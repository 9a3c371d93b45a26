package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/serve"
	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// Daemon traffic shape.  No record of real daemon traffic exists.  The
// repository's own daemon clients are the CI jobs in
// .github/workflows/ci.yml; each value below says whether it follows
// them or is an assumption, and why.
const (
	// pollInterval is the clients' wait between status polls: the CI
	// smoke and recovery jobs sleep 0.2 s between polls.
	pollInterval = 200 * time.Millisecond
	// inFlightPerClient is how many fresh jobs each client keeps
	// submitted and not yet seen done.  The CI recovery job submits its
	// jobs back to back and then polls them in submission order, as the
	// clients here do.  The count is an assumption: large enough that
	// the daemon's workers never idle until the next poll (two workers
	// finish about 20 quick jobs in one 0.2 s poll period), so jobs/s
	// measures the daemon rather than the poll period.
	inFlightPerClient = 32
	// repeatEvery makes every repeatEvery-th submission of a client a
	// resubmission of an already completed spec (a cache hit).  The share
	// is an assumption: no client in the repository resubmits a spec.  A
	// quarter keeps hits a minority of the traffic, as a user re-checking
	// a seed's determinism would make them, and still gives every round
	// over a hundred hits for a steady median.
	repeatEvery = 4
	// prefillJobs are the fresh jobs run before anything is timed; their
	// specs are the ones later resubmitted, and the state directory they
	// leave is the one set-up restarts on.
	prefillJobs = 100
	// restartsPerRound is the daemon's set-up count per round.
	restartsPerRound = 2
)

// daemon is one in-process coefficientd on a loopback HTTP server.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	done   *doneFS
	// rtNs and rtN total the client-side round trips of every request.
	rtNs, rtN atomic.Int64
}

// startDaemon boots serve.New on stateDir with -fsync always, one worker
// per CPU and an admission queue that holds every client's jobs in
// flight (so none is shed), optionally with probes on its seams.
func startDaemon(stateDir string, probe *daemonProbe) (*daemon, error) {
	done := newDoneFS(stateDir)
	cfg := serve.Config{
		Workers:       procs(),
		QueueCapacity: inFlightPerClient * procs(),
		StateDir:      stateDir,
		Fsync:         journal.FsyncAlways,
		FS:            done,
	}
	if probe != nil {
		probe.fs.inner = done
		cfg.FS = probe.fs
		cfg.Hooks.BeforeAttempt = probe.beforeAttempt
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	var h http.Handler = srv.Handler()
	if probe != nil {
		h = probe.wrap(h)
	}
	ts := httptest.NewServer(h)
	client := ts.Client()
	client.Timeout = 30 * time.Second
	return &daemon{srv: srv, ts: ts, client: client, done: done}, nil
}

// doneFS wraps journal.OS() and notes when the result store renames a
// job's result into place.  That is where a fresh job's submit→done
// clock stops: the result is stored and durable, and the job's done
// record follows with one journal fsync.  Polling every 0.2 s would
// round every latency to the poll period.
type doneFS struct {
	journal.FS
	resultsDir string

	mu sync.Mutex
	at map[string]time.Time // scenario hash → result rename
}

func newDoneFS(stateDir string) *doneFS {
	return &doneFS{FS: journal.OS(), resultsDir: filepath.Join(stateDir, "results"), at: map[string]time.Time{}}
}

func (f *doneFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if err == nil && filepath.Dir(newpath) == f.resultsDir {
		now := time.Now()
		f.mu.Lock()
		f.at[strings.TrimSuffix(filepath.Base(newpath), ".json")] = now
		f.mu.Unlock()
	}
	return err
}

// doneAt is when the result of hash was renamed into place.
func (f *doneFS) doneAt(hash string) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.at[hash]
	return t, ok
}

// stop drains the daemon and closes the listener, waiting for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.client.CloseIdleConnections()
	d.ts.Close()
	if st := d.srv.Stats(); err == nil && st.DiskDegraded {
		err = fmt.Errorf("daemon durable state degraded: %s", st.DiskError)
	}
	return err
}

// waitReady polls /readyz until the daemon reports ready.
func (d *daemon) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, _, err := d.do(http.MethodGet, "/readyz", nil)
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("daemon not ready after 30s")
}

// do makes one request and returns status and body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	d.rtNs.Add(int64(time.Since(t0)))
	d.rtN.Add(1)
	return resp.StatusCode, data, err
}

// jobSeed is the seed of the k-th fresh job of a run.
func jobSeed(seed uint64, k int) uint64 { return runner.CellSeed(seed, streamDaemonJob, uint64(k)) }

// jobBody is the submission of a fresh quick degradation job.
func jobBody(seed uint64) []byte {
	data, err := json.Marshal(serve.JobSpec{Seed: seed, Quick: true, Parallel: 1})
	if err != nil {
		panic(err) // a JobSpec with two scalar fields always marshals
	}
	return data
}

// submitted is the part of the POST /jobs answer the clients use.
type submitted struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
}

// jobTimeout bounds one fresh job from submission to done.
const jobTimeout = time.Minute

// pending is a submitted fresh job not yet seen done.
type pending struct {
	submitted
	sent     time.Time
	submit   time.Duration
	polls    int
	pollTime time.Duration
}

// submit posts one fresh job.
func (d *daemon) submit(seed uint64) (*pending, error) {
	t0 := time.Now()
	status, body, err := d.do(http.MethodPost, "/jobs", jobBody(seed))
	p := &pending{sent: t0, submit: time.Since(t0)}
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &p.submitted); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	return p, nil
}

// poll asks for a fresh job's state once and records the job when it
// is done.
func (d *daemon) poll(p *pending, tr *clientTrace) (done bool, err error) {
	if time.Since(p.sent) > jobTimeout {
		return false, fmt.Errorf("job %s not done after %v", p.ID, jobTimeout)
	}
	t0 := time.Now()
	status, body, err := d.do(http.MethodGet, "/jobs/"+p.ID, nil)
	p.pollTime += time.Since(t0)
	p.polls++
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("poll %s: HTTP %d: %s", p.ID, status, body)
	}
	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return false, fmt.Errorf("poll %s: %w", p.ID, err)
	}
	switch st.State {
	case "queued", "running":
		return false, nil
	case "done":
		at, ok := d.done.doneAt(p.Hash)
		if !ok {
			return false, fmt.Errorf("job %s is done but its result was never stored", p.ID)
		}
		tr.addFresh(p, at)
		return true, nil
	default:
		return false, fmt.Errorf("job %s ended %s: %s", p.ID, st.State, st.Error)
	}
}

// result fetches a stored result's bytes.
func (d *daemon) result(hash string) ([]byte, error) {
	status, body, err := d.do(http.MethodGet, "/results/"+hash, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("result %s: HTTP %d", hash, status)
	}
	return body, nil
}

// repeat resubmits a completed spec, expects the cached answer and
// fetches the stored result, which must equal first.
func (d *daemon) repeat(seed uint64, first []byte, tr *clientTrace) error {
	t0 := time.Now()
	status, body, err := d.do(http.MethodPost, "/jobs", jobBody(seed))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("resubmit: HTTP %d, want 200 cached: %s", status, body)
	}
	var sub submitted
	if err := json.Unmarshal(body, &sub); err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	got, err := d.result(sub.Hash)
	if err != nil {
		return err
	}
	tr.addHit(t0, time.Now())
	if !bytes.Equal(got, first) {
		return fmt.Errorf("cached result %s differs from its first completion", sub.Hash)
	}
	return nil
}

// clientTrace collects the client-side samples of one phase.
type clientTrace struct {
	mu sync.Mutex
	// fresh is submit→done per fresh job, freshDone when each was done.
	fresh     []time.Duration
	freshDone []time.Time
	submit    []time.Duration
	// hits is submit→result per cache hit, hitDone when each returned.
	hits      []time.Duration
	hitDone   []time.Time
	polls     int
	pollTime  time.Duration
	submitted map[string]time.Time // scenario hash → submission time
}

func newClientTrace() *clientTrace { return &clientTrace{submitted: map[string]time.Time{}} }

func (t *clientTrace) addFresh(p *pending, done time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fresh = append(t.fresh, done.Sub(p.sent))
	t.freshDone = append(t.freshDone, done)
	t.submit = append(t.submit, p.submit)
	t.polls += p.polls
	t.pollTime += p.pollTime
	t.submitted[p.Hash] = p.sent
}

func (t *clientTrace) addHit(sent, done time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hits = append(t.hits, done.Sub(sent))
	t.hitDone = append(t.hitDone, done)
}

// lastDone is when the last fresh job or cache hit was done.
func (t *clientTrace) lastDone() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	var last time.Time
	for _, list := range [][]time.Time{t.freshDone, t.hitDone} {
		for _, at := range list {
			if at.After(last) {
				last = at
			}
		}
	}
	return last
}

// mix is one phase of closed-loop traffic.
type mix struct {
	seed uint64
	// next hands out fresh job indices; limit is the first index not to
	// run.
	next  atomic.Int64
	limit int64
	// firsts are the completed specs resubmitted by every
	// repeatEvery-th submission of a client (none when empty).
	firsts []firstResult
}

// drive runs procs() closed-loop clients until the fresh jobs up to
// limit are handed out, and returns once every client has seen its last
// job done.
func (m *mix) drive(b *bench, d *daemon, tr *clientTrace) {
	errs := make([][]error, procs())
	var wg sync.WaitGroup
	for c := 0; c < procs(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = m.client(d, tr, c)
		}(c)
	}
	wg.Wait()
	for _, list := range errs {
		for _, err := range list {
			b.op(err)
		}
	}
}

// client is one closed-loop client: it keeps inFlightPerClient fresh
// jobs submitted, sleeps a poll period, polls its jobs in submission
// order up to the first one not yet done, and tops its jobs up again.
// It returns the outcome of every operation it made.
func (m *mix) client(d *daemon, tr *clientTrace, c int) []error {
	var errs []error
	var outstanding []*pending
	stopped := false
	submissions := 0
	for {
		for !stopped && len(outstanding) < inFlightPerClient {
			submissions++
			if i := submissions; len(m.firsts) > 0 && i%repeatEvery == 0 {
				pick := runner.CellSeed(m.seed, streamDaemonRepeat, uint64(c), uint64(i)) % uint64(len(m.firsts))
				f := m.firsts[pick]
				errs = append(errs, d.repeat(f.seed, f.body, tr))
				continue
			}
			k := m.next.Add(1) - 1
			if k >= m.limit {
				stopped = true
				break
			}
			p, err := d.submit(jobSeed(m.seed, int(k)))
			errs = append(errs, err)
			if err == nil {
				outstanding = append(outstanding, p)
			}
		}
		if len(outstanding) == 0 {
			return errs
		}
		time.Sleep(pollInterval)
		for len(outstanding) > 0 {
			done, err := d.poll(outstanding[0], tr)
			if err == nil && !done {
				break
			}
			errs = append(errs, err)
			outstanding = outstanding[1:]
		}
	}
}

// firstResult is a completed spec and the bytes of its first result.
type firstResult struct {
	seed uint64
	body []byte
}

// prefill runs fresh jobs 0..n-1 and records their first results.
func prefill(b *bench, d *daemon, seed uint64, n int, tr *clientTrace) []firstResult {
	m := &mix{seed: seed, limit: int64(n)}
	m.drive(b, d, tr)
	firsts := make([]firstResult, 0, n)
	for k := 0; k < n; k++ {
		spec := serve.JobSpec{Seed: jobSeed(seed, k), Quick: true, Parallel: 1}
		hash, err := spec.CanonicalHash()
		if !b.op(err) {
			continue
		}
		res, err := d.result(hash)
		if b.op(err) {
			firsts = append(firsts, firstResult{seed: spec.Seed, body: res})
		}
	}
	return firsts
}

// copyDir copies the regular files of the tree src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// restart times one daemon boot on dir up to a ready /readyz, then
// drains it again.
func restart(b *bench, dir string) time.Duration {
	t0 := time.Now()
	d, err := startDaemon(dir, nil)
	if !b.op(err) {
		return time.Since(t0)
	}
	b.op(d.waitReady())
	took := time.Since(t0)
	b.op(d.stop())
	return took
}

// roundJobs is the fixed number of fresh jobs of one timed round.
func roundJobs(cfg config) int {
	if cfg.quick {
		return 8
	}
	return 100
}

// round is one timed round of daemon-mixed traffic.
type round struct {
	rate float64   // jobs done per second
	hits []float64 // cache-hit latencies, ms
	// fresh are the fresh jobs' submit→done latencies, ms.
	fresh []float64
	// heap is the live heap at each of the round's collections, MiB.
	heap []float64
}

// runRound boots a daemon on dir, drives a fixed amount of traffic
// (roundJobs fresh jobs, with the cache hits between them) and stops
// it.  A fixed amount, not a fixed time, keeps the daemon's heap, which
// holds every result it has stored, the same from round to round.
func runRound(b *bench, cfg config, dir string, m *mix) (round, error) {
	d, err := startDaemon(dir, nil)
	if err != nil {
		return round{}, err
	}
	b.op(d.waitReady())
	heap := startHeapSampler()
	tr := newClientTrace()
	m.limit = m.next.Load() + int64(roundJobs(cfg))
	t0 := time.Now()
	m.drive(b, d, tr)
	r := round{
		rate:  float64(len(tr.fresh)+len(tr.hits)) / tr.lastDone().Sub(t0).Seconds(),
		hits:  scaled(seconds(tr.hits), 1e3),
		fresh: scaled(seconds(tr.fresh), 1e3),
		heap:  heap.Stop(),
	}
	return r, d.stop()
}

// runDaemon is the untraced daemon-mixed workload.  A prefill of fresh
// jobs leaves a fixed-size state directory.  Every round restarts on
// it, timed as set-up, and then runs its traffic on a fresh copy, so
// the prefilled specs are there to be cache hits and every round starts
// from the same state.
func runDaemon(b *bench, cfg config) error {
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(cfg.buildDir, "daemon-state-")
	if err != nil {
		return err
	}
	defer func() {
		if err := os.RemoveAll(tmp); err != nil {
			fmt.Fprintln(b.log, "coefficientbench: remove daemon state:", err)
		}
	}()
	prefilled := filepath.Join(tmp, "prefilled")
	seed := runner.CellSeed(cfg.seed, streamDaemonJob, 0)
	n := prefillJobs
	if cfg.quick {
		n = 4
	}

	d, err := startDaemon(prefilled, nil)
	if err != nil {
		return err
	}
	firsts := prefill(b, d, seed, n, newClientTrace())
	if err := d.stop(); err != nil {
		return err
	}

	suite, err := newSuiteTables()
	if err != nil {
		return err
	}
	defer func() {
		if err := suite.close(); err != nil {
			fmt.Fprintln(b.log, "coefficientbench: unmap reference suite:", err)
		}
	}()
	suite.run() // maps the tables' pages in

	m := &mix{seed: seed, firsts: firsts}
	m.next.Store(int64(n))
	var (
		setups []time.Duration
		suites []time.Duration
		rounds []round
	)
	end := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(rounds) == 0 || time.Now().Before(end) {
		for i := 0; i < restartsPerRound; i++ {
			setups = append(setups, restart(b, prefilled))
		}
		live := filepath.Join(tmp, fmt.Sprintf("round-%d", len(rounds)))
		if err := copyDir(prefilled, live); err != nil {
			return err
		}
		suites = append(suites, suite.run())
		r, err := runRound(b, cfg, live, m)
		if !b.op(err) {
			return err
		}
		rounds = append(rounds, r)
		if err := os.RemoveAll(live); err != nil {
			return err
		}
	}

	var rates, heaps, hits, fresh []float64
	jobs := 0
	for _, r := range rounds {
		rates = append(rates, r.rate)
		heaps = append(heaps, r.heap...)
		hits = append(hits, r.hits...)
		fresh = append(fresh, r.fresh...)
		jobs += len(r.fresh) + len(r.hits)
	}
	perSec := adjusted(median(rates), suites)
	tailMs, pct := tail(fresh)
	b.set("throughput_per_s", perSec)
	b.set("live_heap_mb", quantile(heaps, 0.9))
	b.set("setup_s", median(seconds(setups)))
	b.notef("daemon-mixed jobs_per_s=%.2f at reference host speed (as measured %.2f; reference suite median %.1fms, %.0fms nominal) rounds=%d jobs=%d cache_hits=%d job_p50_ms=%.3f job_tail_ms=%.3f (p%.4g) cache_hit_p50_ms=%.3f restart(setup, %d prefilled jobs)=%.4fs fsync=always",
		perSec, median(rates), 1e3*median(seconds(suites)), 1e3*refSuite.Seconds(), len(rounds), jobs, len(hits), median(fresh), tailMs, pct, median(hits), n, median(seconds(setups)))
	return nil
}
