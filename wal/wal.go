// Package wal is the broker's durability layer: a segmented, CRC32C-framed
// append-only document log. Every published XML document is appended (and
// assigned a monotonic offset) before fan-out, so a broker crash loses no
// accepted documents; durable subscribers persist a cursor (see CursorStore)
// and replay matched documents from it on reconnect — the at-least-once half
// of the paper's message-routing application (Sec. 1) that the filter engine
// alone cannot provide.
//
// On-disk layout: Options.Dir holds segment files named
// <base-offset-hex-16>.wseg. Each segment starts with a 16-byte header (an
// 8-byte magic and the big-endian base offset) followed by records:
//
//	+--------+--------+----------------+
//	| u32 BE | u32 BE | payload        |
//	| length | CRC32C | length bytes   |
//	+--------+--------+----------------+
//
// Records are never rewritten; the log grows by appending to the active
// (last) segment and rotating to a new one on size/age bounds. Retention
// deletes whole sealed segments from the front. Recovery (Open) scans every
// segment and truncates the log at the first invalid record — a torn tail
// from a crash mid-append loses only the record being written, never an
// earlier one. A zero-length record is invalid by construction so a
// zero-filled tail (filesystems may zero-extend on crash) is recognized as
// torn.
//
// Durability is configurable per Options.Fsync: "always" fsyncs each append,
// "interval" fsyncs on a timer (bounded loss window), "never" leaves
// flushing to the OS (rotation and Close still fsync).
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	segSuffix  = ".wseg"
	headerSize = 16 // 8-byte magic + u64 BE base offset
	recHdrSize = 8  // u32 BE length + u32 BE CRC32C
)

var segMagic = [8]byte{'X', 'P', 'W', 'A', 'L', 'S', 'G', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrTruncated reports a read at an offset older than the retained log
	// (the segment holding it was deleted by retention). Readers recover by
	// restarting from FirstOffset.
	ErrTruncated = errors.New("wal: offset predates the retained log")
)

// FsyncPolicy selects when appends are flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways fsyncs after every append: no accepted document is lost
	// to a crash, at the cost of one fsync per publish.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval fsyncs on a timer (Options.FsyncEvery): a crash loses
	// at most one interval of appends.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the OS; rotation and Close still fsync.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy name from configuration ("" =
// FsyncInterval).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch p := FsyncPolicy(s); p {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return p, nil
	case "":
		return FsyncInterval, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want %s, %s, or %s)",
		s, FsyncAlways, FsyncInterval, FsyncNever)
}

// Options configures a Log. Only Dir is required.
type Options struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// SegmentBytes rotates the active segment when it exceeds this size
	// (<= 0 = 64 MiB).
	SegmentBytes int64
	// SegmentAge rotates a non-empty active segment older than this
	// (0 = size-based rotation only). Evaluated on append.
	SegmentAge time.Duration
	// Fsync selects the flush policy ("" = FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (<= 0 = 100ms).
	FsyncEvery time.Duration
	// RetentionBytes deletes the oldest sealed segments while the log
	// exceeds this size (0 = unlimited). The active segment is never
	// deleted. Evaluated on rotation.
	RetentionBytes int64
	// RetentionAge deletes sealed segments whose newest record is older
	// than this (0 = unlimited). Evaluated on rotation.
	RetentionAge time.Duration
	// MaxRecordBytes bounds one record's payload (<= 0 = 64 MiB); larger
	// lengths in a file are treated as corruption during recovery.
	MaxRecordBytes int
	// BatchMaxRecords caps how many appends one group-commit batch may
	// coalesce (<= 0 = 1024). Concurrent appenders share a single file
	// write and — under FsyncAlways — a single fsync per batch.
	BatchMaxRecords int
	// BatchMaxWait stretches the group-commit accumulation window: the
	// batch leader holds the commit for up to this long (or until the
	// batch is full) so more appenders can join. The previous batch's
	// fsync is the natural accumulation window, so usually nothing more
	// is needed; the knob is an override for unusual disks.
	//
	// 0 (the default) is adaptive: under FsyncAlways, once committed
	// batches show concurrent appenders (the previous batch coalesced two
	// or more records) and the open batch is still smaller than that —
	// i.e. there is plausibly still someone to wait for — the leader
	// waits half the observed fsync-latency EWMA (capped at 5ms). Slow
	// disks earn wider windows and bigger batches; fast disks stay near
	// zero; strictly sequential appenders and closed appender loops that
	// already piled in during the lock handoff never wait at all. A
	// negative value disables the adaptive window and always commits as
	// soon as the file lock is acquired.
	BatchMaxWait time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o *Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 64 << 20
}

func (o *Options) fsyncEvery() time.Duration {
	if o.FsyncEvery > 0 {
		return o.FsyncEvery
	}
	return 100 * time.Millisecond
}

func (o *Options) maxRecordBytes() int {
	if o.MaxRecordBytes > 0 {
		return o.MaxRecordBytes
	}
	return 64 << 20
}

func (o *Options) batchMaxRecords() int {
	if o.BatchMaxRecords > 0 {
		return o.BatchMaxRecords
	}
	return 1024
}

// segment is one on-disk log file. base is the offset of its first record;
// sealed segments are immutable, the last segment is the append target.
type segment struct {
	base       uint64
	records    uint64
	size       int64 // bytes including the header
	path       string
	created    time.Time
	lastAppend time.Time // newest record's write time (RetentionAge basis)
}

// segFile is the active segment's file handle. Production is always an
// *os.File; the indirection is a seam so tests can inject write/fsync
// failures without reaching for syscall tricks.
type segFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// wrapSegFile wraps every newly opened active segment. Package tests swap it
// to inject faults; it must be set before Open and not mutated while the log
// is live.
var wrapSegFile = func(f *os.File) segFile { return f }

// batch is one group-commit unit: the framed records of every append that
// joined it, committed with a single file write and (under FsyncAlways) a
// single fsync. The first appender to join is the leader and performs the
// commit; followers park on done.
type batch struct {
	buf   []byte
	count int
	full  chan struct{} // closed when count reaches the batch cap
	done  chan struct{} // closed once the batch is committed or rejected
	// goal, when > 0, is the adaptive accumulation target set by the
	// leader before it waits; grown is closed (once) when count reaches
	// it, waking the leader early. Both are guarded by Log.bmu.
	goal       int
	grown      chan struct{}
	grownFired bool
	base       uint64 // offset of the batch's first record (valid when err == nil)
	err        error
	// offsetsStand marks the fsync-failed-and-cannot-truncate corner: the
	// records are in the file and will be replayed after a crash, so their
	// offsets are reported alongside err (see Append's contract).
	offsetsStand bool
}

// failure is a latched permanent error (see Log.failed).
type failure struct{ err error }

// fsyncFailLimit is how many consecutive fsync failures latch the log as
// failed: one failure can be a transient blip, a streak is a dying disk.
const fsyncFailLimit = 3

// Log is the append-only document log. Append/Sync/Close and the reader API
// are safe for concurrent use; there is a single writer (the Log itself).
type Log struct {
	opt Options

	// bmu guards the open batch that appenders join; mu guards the file
	// and segment state. A batch leader takes bmu only briefly (join,
	// seal) and mu for the whole commit — so while one batch is inside
	// its fsync under mu, the next batch accumulates under bmu.
	bmu     sync.Mutex
	pending *batch

	mu     sync.Mutex
	segs   []*segment
	f      segFile // active segment, positioned at its end
	next   uint64  // next offset to assign
	dirty  bool    // active segment has unsynced appends
	closed bool

	appends, appendErrs, syncs, rotations, retired int64

	fsyncErrs      int64 // total failed fsyncs of the active segment
	lastSyncErr    error
	syncFailStreak int // consecutive failed fsyncs; reset on success

	// failed latches a persistent fsync failure so appends fail fast
	// instead of silently degrading durability (read lock-free on the
	// append path).
	failed atomic.Pointer[failure]

	stop chan struct{}
	wg   sync.WaitGroup

	fsyncLat   obs.Histogram
	batchSizes obs.Histogram // records per committed group-commit batch

	// Adaptive group-commit state (guarded by mu): the fsync-latency EWMA
	// that sizes the accumulation window, and the previous committed
	// batch's record count as the concurrency signal.
	fsyncEWMA  time.Duration
	lastBatchN int
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	Segments        int
	Bytes           int64
	FirstOffset     uint64
	NextOffset      uint64
	Appends         int64
	AppendErrors    int64
	Syncs           int64
	Rotations       int64
	RetiredSegments int64
	// FsyncErrors counts failed fsyncs of the active segment;
	// LastFsyncError is the most recent one ("" = none). Failed reports
	// the log has latched a persistent fsync failure and rejects appends.
	FsyncErrors    int64
	LastFsyncError string
	Failed         bool
}

func (l *Log) logf(format string, args ...any) {
	if l.opt.Logf != nil {
		l.opt.Logf(format, args...)
	}
}

// Open opens (or creates) the log in opt.Dir, recovering from a previous
// crash: every segment is scanned and the log is truncated at the first
// invalid record (torn tail). The returned log is positioned to append.
func Open(opt Options) (*Log, error) {
	if opt.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	pol, err := ParseFsyncPolicy(string(opt.Fsync))
	if err != nil {
		return nil, err
	}
	opt.Fsync = pol
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{opt: opt, stop: make(chan struct{})}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		if err := l.createSegment(l.next); err != nil {
			return nil, err
		}
	} else {
		last := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(last.size, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.f = wrapSegFile(f)
	}
	if pol == FsyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// recover scans the segment directory, truncating the log at the first
// invalid record and deleting any unreachable later segments.
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.opt.Dir)
	if err != nil {
		return err
	}
	type found struct {
		base uint64
		path string
	}
	var files []found
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			l.logf("wal: ignoring unparsable segment name %s", name)
			continue
		}
		files = append(files, found{base, filepath.Join(l.opt.Dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].base < files[j].base })

	drop := func(from int, why string) {
		for _, f := range files[from:] {
			l.logf("wal: removing unreachable segment %s (%s)", f.path, why)
			os.Remove(f.path)
		}
	}
	for i, f := range files {
		if i > 0 && f.base != l.next {
			drop(i, fmt.Sprintf("base %d does not continue offset %d", f.base, l.next))
			break
		}
		sc, err := scanSegment(f.path, f.base, l.opt.maxRecordBytes())
		if err != nil {
			return err
		}
		if !sc.headerOK {
			drop(i, "invalid segment header")
			break
		}
		if sc.torn {
			l.logf("wal: truncating torn tail of %s at %d bytes (%d valid records)",
				f.path, sc.validSize, sc.records)
			if err := os.Truncate(f.path, sc.validSize); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", f.path, err)
			}
		}
		info, ierr := os.Stat(f.path)
		created := time.Now()
		if ierr == nil {
			created = info.ModTime()
		}
		// ModTime is when the segment was last written, i.e. its newest
		// record's age — the right basis for both rotation and retention
		// after a restart.
		l.segs = append(l.segs, &segment{
			base: f.base, records: sc.records, size: sc.validSize, path: f.path,
			created: created, lastAppend: created,
		})
		l.next = f.base + sc.records
		if sc.torn {
			drop(i+1, "follows a torn segment")
			break
		}
	}
	return nil
}

// segScan is the result of scanning one segment file.
type segScan struct {
	headerOK  bool
	records   uint64
	validSize int64
	torn      bool // trailing bytes past validSize are invalid
}

// scanSegment validates a segment sequentially: header, then records until
// the first invalid one.
func scanSegment(path string, wantBase uint64, maxRecord int) (segScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return segScan{torn: true}, nil // shorter than a header: unusable
	}
	if [8]byte(hdr[:8]) != segMagic || beU64(hdr[8:]) != wantBase {
		return segScan{torn: true}, nil
	}
	sc := segScan{headerOK: true, validSize: headerSize}
	var rh [recHdrSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(f, rh[:]); err != nil {
			sc.torn = err == io.ErrUnexpectedEOF
			return sc, nil
		}
		plen := int(beU32(rh[:4]))
		if plen <= 0 || plen > maxRecord {
			sc.torn = true
			return sc, nil
		}
		if cap(buf) < plen {
			buf = make([]byte, plen)
		}
		if _, err := io.ReadFull(f, buf[:plen]); err != nil {
			sc.torn = true
			return sc, nil
		}
		if crc32.Checksum(buf[:plen], castagnoli) != beU32(rh[4:]) {
			sc.torn = true
			return sc, nil
		}
		sc.records++
		sc.validSize += recHdrSize + int64(plen)
	}
}

// createSegment seals nothing and opens a fresh active segment at base.
func (l *Log) createSegment(base uint64) error {
	path := filepath.Join(l.opt.Dir, fmt.Sprintf("%016x%s", base, segSuffix))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:8], segMagic[:])
	putU64(hdr[8:], base)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	syncDir(l.opt.Dir)
	l.f = wrapSegFile(f)
	now := time.Now()
	l.segs = append(l.segs, &segment{base: base, size: headerSize, path: path, created: now, lastAppend: now})
	return nil
}

// Append appends one document and returns its offset. The document is on
// disk (modulo the fsync policy) before Append returns; a failed append
// assigns no offset and leaves the log consistent — under FsyncAlways a
// record whose fsync fails is truncated back out, unless that truncation
// itself fails, in which case the record (and its offset) stand and the
// error is still returned: the caller sees a rejected append that may
// nevertheless be replayed, the at-least-once-safe direction.
//
// Concurrent Appends group-commit: their records share one file write and
// (under FsyncAlways) one fsync, so durable throughput scales with the
// number of concurrent publishers instead of paying a private fsync each.
// A batch commits or fails as a unit — a failed fsync rejects every append
// in the batch.
func (l *Log) Append(doc []byte) (uint64, error) {
	return l.AppendAsync(doc).Wait()
}

// Pending is an in-flight append handed out by AppendAsync: the document
// has joined a group-commit batch but is not yet on disk. Wait blocks until
// the batch commits (or is rejected) and returns the record's offset.
type Pending struct {
	l   *Log
	b   *batch
	idx int   // record index within the batch
	err error // join-time rejection (b == nil)
}

// AppendAsync stages one document for the next group-commit batch and
// returns without waiting for the commit. The caller may overlap other work
// (e.g. filtering the document) with the batch's accumulation and fsync,
// then call Wait to learn the outcome. Safe for concurrent use; records
// within a batch are ordered by join time.
func (l *Log) AppendAsync(doc []byte) *Pending {
	if len(doc) == 0 {
		return &Pending{err: errors.New("wal: empty document")}
	}
	if len(doc) > l.opt.maxRecordBytes() {
		return &Pending{err: fmt.Errorf("wal: document %d bytes exceeds record limit %d", len(doc), l.opt.maxRecordBytes())}
	}
	if f := l.failed.Load(); f != nil {
		return &Pending{err: fmt.Errorf("wal: log failed: %w", f.err)}
	}
	l.bmu.Lock()
	b := l.pending
	if b == nil {
		b = &batch{full: make(chan struct{}), done: make(chan struct{})}
		l.pending = b
	}
	idx := b.count
	b.count++
	var rh [recHdrSize]byte
	putU32(rh[:4], uint32(len(doc)))
	putU32(rh[4:], crc32.Checksum(doc, castagnoli))
	b.buf = append(append(b.buf, rh[:]...), doc...)
	if b.count >= l.opt.batchMaxRecords() {
		l.pending = nil // batch is full: stop accepting joiners
		close(b.full)
	}
	if b.goal > 0 && b.count >= b.goal && !b.grownFired {
		b.grownFired = true
		close(b.grown)
	}
	l.bmu.Unlock()
	return &Pending{l: l, b: b, idx: idx}
}

// Wait blocks until the append's batch has committed and returns the
// record's offset. The first appender of a batch is the leader and performs
// the commit inside its Wait; followers just park until the leader closes
// the batch's done channel.
func (p *Pending) Wait() (uint64, error) {
	if p.b == nil {
		return 0, p.err
	}
	if p.idx == 0 {
		p.l.commit(p.b)
	} else {
		<-p.b.done
	}
	if p.b.err != nil && !p.b.offsetsStand {
		return 0, p.b.err
	}
	return p.b.base + uint64(p.idx), p.b.err
}

// BatchSize returns how many records shared this append's batch. Only
// meaningful after Wait returns (the batch is sealed by then).
func (p *Pending) BatchSize() int {
	if p.b == nil {
		return 0
	}
	return p.b.count
}

// maxAdaptiveBatchWait caps the derived accumulation window so a slow disk
// (or a cold EWMA polluted by a latency spike) cannot stall commits.
const maxAdaptiveBatchWait = 5 * time.Millisecond

// batchWaitLocked picks the group-commit accumulation window; staged is how
// many records the open batch already holds. An explicit BatchMaxWait
// overrides everything (negative disables waiting). Otherwise the window
// adapts: when fsync dominates commit cost (FsyncAlways), the previous
// batch proved concurrent appenders exist (it coalesced ≥2 records), and
// this batch has not yet caught up to that size — i.e. there is plausibly
// still someone to wait for — the leader waits half the observed
// fsync-latency EWMA, long enough to amortize the fsync, short enough not
// to dominate latency. Sequential workloads see lastBatchN == 1 and never
// wait; a closed loop of appenders that all staged during the lock handoff
// sees staged >= lastBatchN and never waits either.
func (l *Log) batchWaitLocked(staged int) time.Duration {
	if w := l.opt.BatchMaxWait; w != 0 {
		if w < 0 {
			return 0
		}
		return w
	}
	if l.opt.Fsync != FsyncAlways || l.lastBatchN < 2 || staged >= l.lastBatchN {
		return 0
	}
	w := l.fsyncEWMA / 2
	if w > maxAdaptiveBatchWait {
		w = maxAdaptiveBatchWait
	}
	return w
}

// commit is run by the batch leader: it acquires the file lock — blocking
// behind the previous batch's fsync, which is the accumulation window that
// lets followers pile in — seals the batch, and commits it with one write
// and one fsync.
func (l *Log) commit(b *batch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Deferred after Unlock so it runs first: followers wake while this
	// leader still holds the file lock, giving them a head start joining
	// the next batch before its leader can seal it.
	defer close(b.done)
	// Let the previous batch's just-woken followers run before sealing:
	// without this, an idle disk lets the leader seal a near-empty batch
	// while the rest of a closed loop of publishers is still waking up.
	runtime.Gosched()
	l.bmu.Lock()
	wait := l.batchWaitLocked(b.count)
	var grown chan struct{}
	if wait > 0 && l.opt.BatchMaxWait == 0 {
		// Adaptive window: arm an early exit so the wait ends the moment
		// the batch catches up to the previous batch's size instead of
		// sleeping out the whole window.
		b.goal = l.lastBatchN
		b.grown = make(chan struct{})
		grown = b.grown
	}
	l.bmu.Unlock()
	if wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-b.full:
		case <-grown: // nil under a static window: never fires
		case <-t.C:
		}
		t.Stop()
	}
	// Seal: late arrivals start a new batch with their own leader.
	l.bmu.Lock()
	if l.pending == b {
		l.pending = nil
	}
	n := b.count
	l.bmu.Unlock()
	l.lastBatchN = n

	if l.closed {
		b.err = ErrClosed
		return
	}
	active := l.segs[len(l.segs)-1]
	if active.size >= l.opt.segmentBytes() ||
		(l.opt.SegmentAge > 0 && active.records > 0 && time.Since(active.created) >= l.opt.SegmentAge) {
		if err := l.rotateLocked(); err != nil {
			l.appendErrs += int64(n)
			b.err = err
			return
		}
		active = l.segs[len(l.segs)-1]
	}
	wn, err := l.f.Write(b.buf)
	if err != nil {
		l.appendErrs += int64(n)
		if wn > 0 {
			// Undo the partial write so the on-disk tail stays valid.
			if terr := l.f.Truncate(active.size); terr == nil {
				l.f.Seek(active.size, io.SeekStart)
			} else {
				l.logf("wal: cannot undo partial batch write (%v); recovery will truncate it", terr)
			}
		}
		b.err = err
		return
	}
	if l.opt.Fsync == FsyncAlways {
		if serr := l.syncLocked(true); serr != nil {
			// The batch reached the file but not stable storage. Undo it so
			// the failed appends assign no offsets: the server rejects the
			// publishes, and surviving records would be replayed to durable
			// subscribers as documents nobody accepted. The whole batch is
			// rejected — offsets are assigned contiguously at commit, so a
			// partial accept would leave holes.
			l.appendErrs += int64(n)
			b.err = serr
			if terr := l.f.Truncate(active.size); terr != nil {
				l.logf("wal: cannot undo batch after failed fsync (%v); offsets %d-%d stand and may be redelivered",
					terr, l.next, l.next+uint64(n)-1)
				b.offsetsStand = true
				// Fall through: the records are in the file, so the offsets
				// must advance or the next batch would overwrite them.
			} else {
				l.f.Seek(active.size, io.SeekStart)
				return
			}
		}
	}
	active.size += int64(len(b.buf))
	active.records += uint64(n)
	active.lastAppend = time.Now()
	b.base = l.next
	l.next += uint64(n)
	l.appends += int64(n)
	l.batchSizes.Observe(float64(n))
	if l.opt.Fsync == FsyncInterval {
		l.dirty = true
	}
}

// rotateLocked seals the active segment (fsync + close) and opens the next.
// l.f is nil when a previous rotation sealed the segment but failed in
// createSegment (e.g. transient disk-full); a retry then proceeds straight to
// segment creation instead of failing forever on the nil file.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
		l.dirty = false
	}
	if err := l.createSegment(l.next); err != nil {
		return err
	}
	l.rotations++
	l.applyRetentionLocked()
	return nil
}

// applyRetentionLocked deletes sealed segments from the front per the
// retention options. The active segment is never deleted.
func (l *Log) applyRetentionLocked() {
	if l.opt.RetentionBytes <= 0 && l.opt.RetentionAge <= 0 {
		return
	}
	for len(l.segs) > 1 {
		oldest := l.segs[0]
		drop := false
		if l.opt.RetentionBytes > 0 {
			var total int64
			for _, s := range l.segs {
				total += s.size
			}
			drop = total > l.opt.RetentionBytes
		}
		if !drop && l.opt.RetentionAge > 0 && time.Since(oldest.lastAppend) > l.opt.RetentionAge {
			drop = true
		}
		if !drop {
			break
		}
		l.logf("wal: retention deleting segment %s (offsets %d-%d)",
			oldest.path, oldest.base, oldest.base+oldest.records-1)
		os.Remove(oldest.path)
		l.segs = l.segs[1:]
		l.retired++
	}
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked(true)
}

func (l *Log) syncLocked(force bool) error {
	if l.f == nil || (!force && !l.dirty) {
		return nil
	}
	t := time.Now()
	err := l.f.Sync()
	d := time.Since(t)
	l.fsyncLat.Observe(d.Seconds())
	l.syncs++
	if err == nil {
		// EWMA (α = 1/8) of successful fsync latency feeds the adaptive
		// group-commit window; failed syncs are excluded so a dying disk's
		// timeouts don't inflate the accumulation window.
		if l.fsyncEWMA == 0 {
			l.fsyncEWMA = d
		} else {
			l.fsyncEWMA += (d - l.fsyncEWMA) / 8
		}
		l.dirty = false
		l.syncFailStreak = 0
		return nil
	}
	l.fsyncErrs++
	l.lastSyncErr = err
	l.syncFailStreak++
	if l.syncFailStreak >= fsyncFailLimit && l.failed.Load() == nil {
		// A streak of failed fsyncs is a dying disk, not a blip. Latch the
		// failure so appends fail fast: without this, FsyncInterval would
		// silently degrade to FsyncNever while acking every publish.
		l.failed.Store(&failure{err: err})
		l.logf("wal: %d consecutive fsync failures; latching log as failed: %v", l.syncFailStreak, err)
	}
	return err
}

func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opt.fsyncEvery())
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.syncLocked(false); err != nil {
					l.logf("wal: interval fsync: %v", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Close fsyncs and closes the active segment. Readers and appends fail with
// ErrClosed afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.f != nil {
		err = l.f.Sync()
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// FirstOffset returns the offset of the oldest retained record (equal to
// NextOffset when the log is empty).
func (l *Log) FirstOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return l.next
	}
	return l.segs[0].base
}

// NextOffset returns the offset the next append will be assigned.
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Stats returns a point-in-time summary.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:        len(l.segs),
		NextOffset:      l.next,
		FirstOffset:     l.next,
		Appends:         l.appends,
		AppendErrors:    l.appendErrs,
		Syncs:           l.syncs,
		Rotations:       l.rotations,
		RetiredSegments: l.retired,
		FsyncErrors:     l.fsyncErrs,
		Failed:          l.failed.Load() != nil,
	}
	if l.lastSyncErr != nil {
		st.LastFsyncError = l.lastSyncErr.Error()
	}
	if len(l.segs) > 0 {
		st.FirstOffset = l.segs[0].base
	}
	for _, s := range l.segs {
		st.Bytes += s.size
	}
	return st
}

// FsyncLatency returns the fsync latency histogram snapshot (seconds).
func (l *Log) FsyncLatency() obs.Snapshot { return l.fsyncLat.Snapshot() }

// BatchSizes returns the group-commit batch-size histogram snapshot
// (records per committed batch).
func (l *Log) BatchSizes() obs.Snapshot { return l.batchSizes.Snapshot() }

// Failed returns the latched persistent-fsync-failure error, or nil while
// the log is healthy. A failed log rejects every append; the operator must
// restart the broker (after fixing the disk) to recover.
func (l *Log) Failed() error {
	if f := l.failed.Load(); f != nil {
		return f.err
	}
	return nil
}

// VerifyResult summarizes a read-only integrity check of a log directory.
type VerifyResult struct {
	Segments    int
	Records     uint64
	FirstOffset uint64
	NextOffset  uint64
	Bytes       int64
	// Torn reports whether any invalid bytes follow the valid prefix (a
	// crash mid-append, or corruption); Open would truncate them.
	Torn bool
}

// Verify scans dir read-only and reports the valid record range and whether
// a torn tail (or unreachable segments) would be truncated by Open. It does
// not modify any file, so it is safe to run against a live log for tests
// and tooling.
func Verify(dir string) (VerifyResult, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return VerifyResult{}, err
	}
	type found struct {
		base uint64
		path string
	}
	var files []found
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			continue
		}
		files = append(files, found{base, filepath.Join(dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].base < files[j].base })
	var res VerifyResult
	first := true
	for i, f := range files {
		if !first && f.base != res.NextOffset {
			res.Torn = true
			break
		}
		sc, err := scanSegment(f.path, f.base, (&Options{}).maxRecordBytes())
		if err != nil {
			return res, err
		}
		if !sc.headerOK {
			res.Torn = true
			break
		}
		if first {
			res.FirstOffset = f.base
			first = false
		}
		res.Segments++
		res.Records += sc.records
		res.Bytes += sc.validSize
		res.NextOffset = f.base + sc.records
		if sc.torn {
			res.Torn = true
			break
		}
		if sc.records == 0 && i < len(files)-1 {
			// An empty sealed segment is only left behind by a crash.
			res.Torn = true
			break
		}
	}
	return res, nil
}

// syncDir fsyncs a directory so a new file's name survives a crash
// (best-effort: some platforms reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func beU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func beU64(b []byte) uint64 {
	return uint64(beU32(b[:4]))<<32 | uint64(beU32(b[4:8]))
}

func putU64(b []byte, v uint64) {
	putU32(b[:4], uint32(v>>32))
	putU32(b[4:8], uint32(v))
}
