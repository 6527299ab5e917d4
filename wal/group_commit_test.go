package wal

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// faultFile wraps the active segment so tests can inject fsync failures.
// Sync consults failSync before touching the disk; delaySync (optional)
// stretches each successful fsync so concurrent appenders pile into the
// next batch.
type faultFile struct {
	*os.File
	mu        sync.Mutex
	failSync  error
	delaySync time.Duration
}

func (f *faultFile) Sync() error {
	f.mu.Lock()
	fail := f.failSync
	delay := f.delaySync
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return fail
	}
	return f.File.Sync()
}

func (f *faultFile) setFailSync(err error) {
	f.mu.Lock()
	f.failSync = err
	f.mu.Unlock()
}

// installFaultFile routes every segment the log opens during the test
// through a shared fault injector and restores the hook afterwards.
func installFaultFile(t *testing.T) *faultFile {
	t.Helper()
	ff := &faultFile{}
	prev := wrapSegFile
	wrapSegFile = func(f *os.File) segFile {
		ff.mu.Lock()
		ff.File = f
		ff.mu.Unlock()
		return ff
	}
	t.Cleanup(func() { wrapSegFile = prev })
	return ff
}

func (f *faultFile) Truncate(size int64) error { return f.File.Truncate(size) }

// TestGroupCommitConcurrentAppends pins the heart of group commit: many
// concurrent FsyncAlways appenders succeed with unique contiguous offsets
// while sharing far fewer fsyncs than appends.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	ff := installFaultFile(t)
	ff.delaySync = 2 * time.Millisecond // make the accumulation window real
	l := openTest(t, Options{Fsync: FsyncAlways})

	const workers, per = 8, 25
	offs := make(chan uint64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				off, err := l.Append([]byte(fmt.Sprintf("<doc w='%d' n='%d'/>", w, i)))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				offs <- off
			}
		}(w)
	}
	wg.Wait()
	close(offs)

	seen := map[uint64]bool{}
	for off := range offs {
		if seen[off] {
			t.Fatalf("offset %d assigned twice", off)
		}
		seen[off] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d offsets, want %d", len(seen), workers*per)
	}
	for i := uint64(0); i < workers*per; i++ {
		if !seen[i] {
			t.Fatalf("offset %d never assigned (offsets must be contiguous)", i)
		}
	}
	st := l.Stats()
	if st.Syncs >= int64(workers*per) {
		t.Fatalf("Syncs = %d for %d appends: no batching happened", st.Syncs, workers*per)
	}
	if snap := l.BatchSizes(); snap.Count == 0 {
		t.Fatal("batch-size histogram recorded nothing")
	}
	if got := readAll(t, l, 0); len(got) != workers*per {
		t.Fatalf("log has %d records, want %d", len(got), workers*per)
	}
}

// TestGroupCommitBatchFsyncFailureRejectsAll pins batch-failure semantics:
// when the single fsync covering a batch fails, every append in the batch
// is rejected, no offsets are assigned, and the records are truncated back
// out so the log stays consistent. Run with -race: the appenders race the
// leader's commit.
func TestGroupCommitBatchFsyncFailureRejectsAll(t *testing.T) {
	ff := installFaultFile(t)
	l := openTest(t, Options{Fsync: FsyncAlways})

	bang := errors.New("injected fsync failure")
	ff.setFailSync(bang)

	// All four stage their records before any of them waits, and the
	// leader commits inside its Wait, so they commit — and fail — as one
	// batch.
	const n = 4
	errs := make(chan error, n)
	var staged, wg sync.WaitGroup
	staged.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := l.AppendAsync([]byte(fmt.Sprintf("<doc n='%d'/>", i)))
			staged.Done()
			staged.Wait()
			_, err := p.Wait()
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, bang) {
			t.Fatalf("append error = %v, want the injected fsync failure", err)
		}
	}
	st := l.Stats()
	if st.NextOffset != 0 {
		t.Fatalf("NextOffset = %d after failed batch, want 0", st.NextOffset)
	}
	if st.AppendErrors != n {
		t.Fatalf("AppendErrors = %d, want %d (every append in the batch)", st.AppendErrors, n)
	}
	if st.FsyncErrors == 0 {
		t.Fatal("FsyncErrors not counted")
	}

	// The batch was truncated out: the disk holds zero records and a fresh
	// append lands at offset 0.
	ff.setFailSync(nil)
	off, err := l.Append([]byte("<ok/>"))
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if off != 0 {
		t.Fatalf("offset after failed batch = %d, want 0", off)
	}
	if got := readAll(t, l, 0); len(got) != 1 || got[0] != "<ok/>" {
		t.Fatalf("log contents = %q, want just <ok/>", got)
	}
}

// TestIntervalFsyncFailureLatches is the regression test for the
// silently-swallowed interval fsync errors: a persistent failure must be
// counted, surfaced in Stats, and latch the log so appends fail fast
// instead of degrading FsyncInterval to FsyncNever.
func TestIntervalFsyncFailureLatches(t *testing.T) {
	ff := installFaultFile(t)
	l := openTest(t, Options{Fsync: FsyncInterval, FsyncEvery: time.Millisecond})

	bang := errors.New("injected fsync failure")
	ff.setFailSync(bang)
	if _, err := l.Append([]byte("<doc/>")); err != nil {
		t.Fatalf("first append should succeed (fsync is deferred): %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := l.Stats()
		if st.Failed && st.FsyncErrors >= fsyncFailLimit {
			if st.LastFsyncError == "" {
				t.Fatal("LastFsyncError empty after failures")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never latched failure: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Failed(); !errors.Is(err, bang) {
		t.Fatalf("Failed() = %v, want the injected error", err)
	}
	if _, err := l.Append([]byte("<doc/>")); err == nil || !strings.Contains(err.Error(), "log failed") {
		t.Fatalf("append on latched log = %v, want fail-fast error", err)
	}
}

// TestAdaptiveBatchWaitPolicy pins the window-selection rules: a wait needs
// FsyncAlways plus evidence of concurrency (previous batch ≥ 2 records)
// plus room to grow (open batch still below the previous batch's size),
// and the window is half the fsync EWMA capped at maxAdaptiveBatchWait.
func TestAdaptiveBatchWaitPolicy(t *testing.T) {
	l := openTest(t, Options{Fsync: FsyncAlways})
	l.mu.Lock()
	defer l.mu.Unlock()

	// Cold start: no EWMA, no batch history — never wait.
	if w := l.batchWaitLocked(1); w != 0 {
		t.Fatalf("cold adaptive wait = %v, want 0", w)
	}

	l.fsyncEWMA = 2 * time.Millisecond
	l.lastBatchN = 1
	if w := l.batchWaitLocked(1); w != 0 {
		t.Fatalf("sequential (lastBatchN=1) wait = %v, want 0", w)
	}

	l.lastBatchN = 3
	if w := l.batchWaitLocked(1); w != time.Millisecond {
		t.Fatalf("adaptive wait = %v, want half the EWMA (1ms)", w)
	}

	// A batch that already matched the previous batch's size has nobody
	// left to wait for (the closed-appender-loop case).
	if w := l.batchWaitLocked(3); w != 0 {
		t.Fatalf("caught-up batch wait = %v, want 0", w)
	}

	l.fsyncEWMA = 40 * time.Millisecond
	if w := l.batchWaitLocked(1); w != maxAdaptiveBatchWait {
		t.Fatalf("adaptive wait = %v, want the %v cap", w, maxAdaptiveBatchWait)
	}

	// Without FsyncAlways there is nothing to amortize.
	l.opt.Fsync = FsyncInterval
	if w := l.batchWaitLocked(1); w != 0 {
		t.Fatalf("FsyncInterval adaptive wait = %v, want 0", w)
	}
}

// TestAdaptiveFsyncEWMATracksLatency pins that committed FsyncAlways appends
// feed the latency EWMA the adaptive window is derived from.
func TestAdaptiveFsyncEWMATracksLatency(t *testing.T) {
	ff := installFaultFile(t)
	ff.delaySync = time.Millisecond
	l := openTest(t, Options{Fsync: FsyncAlways})
	appendN(t, l, 3)
	l.mu.Lock()
	ewma := l.fsyncEWMA
	l.mu.Unlock()
	if ewma < time.Millisecond {
		t.Fatalf("fsyncEWMA = %v after 1ms-delayed fsyncs, want >= 1ms", ewma)
	}
}

// TestGroupCommitSequentialUnchanged pins that uncontended appends behave
// exactly as before group commit: batches of one, one fsync per append
// under FsyncAlways.
func TestGroupCommitSequentialUnchanged(t *testing.T) {
	l := openTest(t, Options{Fsync: FsyncAlways})
	appendN(t, l, 5)
	st := l.Stats()
	if st.Appends != 5 || st.NextOffset != 5 {
		t.Fatalf("Appends=%d NextOffset=%d, want 5/5", st.Appends, st.NextOffset)
	}
	if st.Syncs < 5 {
		t.Fatalf("Syncs = %d, want >= 5 (one per uncontended append)", st.Syncs)
	}
	snap := l.BatchSizes()
	if snap.Count != 5 {
		t.Fatalf("batch count = %d, want 5", snap.Count)
	}
}
