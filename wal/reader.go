package wal

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// Reader iterates the log from a starting offset, following the live tail:
// Next returns io.EOF at the committed end of the log and can be called
// again after more appends (pair it with a notification from the appender).
// A Reader is owned by one goroutine; the payload returned by Next is valid
// only until the following Next call.
type Reader struct {
	l   *Log
	off uint64 // next offset to return

	f       readFile
	segBase uint64
	cur     uint64 // offset of the record at pos
	pos     int64
	// buf holds the last record read, header first. ahead is how much
	// payload the next read asks for along with the header, in one ReadAt:
	// the largest recent payload (see readAhead).
	buf   []byte
	ahead int
}

// maxReadAhead caps a Reader's read-ahead: a record longer than this always
// takes a second read.
const maxReadAhead = 64 << 10

// readAhead is the read-ahead after a record of plen bytes: the largest
// recent payload, decaying by 1/32 per record, up to maxReadAhead. Records
// of one log are alike in size but not equal, and reading a few KB more from
// the page cache costs less than a second pread.
func readAhead(ahead, plen int) int {
	return min(max(plen, ahead-ahead/32), maxReadAhead)
}

// readFile is a segment file as a Reader reads it. Production is always an
// *os.File; package tests swap wrapReadFile to count the reads.
type readFile interface {
	io.ReaderAt
	io.Closer
}

var wrapReadFile = func(f *os.File) readFile { return f }

// OpenReader returns a reader positioned at offset. An offset older than the
// retained log is detected on the first Next (ErrTruncated); an offset at or
// past the tail reads io.EOF until appends catch up.
func (l *Log) OpenReader(offset uint64) (*Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	return &Reader{l: l, off: offset}, nil
}

// Next returns the next record and its offset. It returns io.EOF at the
// committed end of the log and ErrTruncated when the wanted offset has been
// deleted by retention (restart from FirstOffset).
func (r *Reader) Next() (uint64, []byte, error) {
	l := r.l
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, nil, ErrClosed
	}
	if r.off >= l.next {
		l.mu.Unlock()
		return 0, nil, io.EOF
	}
	// Locate the segment containing r.off: the last one with base <= r.off.
	i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].base > r.off }) - 1
	if i < 0 {
		l.mu.Unlock()
		return 0, nil, ErrTruncated
	}
	base, path := l.segs[i].base, l.segs[i].path
	l.mu.Unlock()

	if r.f == nil || r.segBase != base {
		if r.f != nil {
			r.f.Close()
			r.f = nil
		}
		osf, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				return 0, nil, ErrTruncated
			}
			return 0, nil, err
		}
		f := wrapReadFile(osf)
		r.buf = grow(r.buf, headerSize)
		hdr := r.buf[:headerSize]
		if _, err := f.ReadAt(hdr, 0); err != nil {
			f.Close()
			return 0, nil, fmt.Errorf("wal: reading header of %s: %w", path, err)
		}
		if [8]byte(hdr[:8]) != segMagic || beU64(hdr[8:]) != base {
			f.Close()
			return 0, nil, fmt.Errorf("wal: %s has a corrupt header", path)
		}
		r.f, r.segBase, r.cur, r.pos = f, base, base, headerSize
	}
	// Skip records below the wanted offset (only after (re)opening a
	// segment mid-way, e.g. resuming a cursor).
	for r.cur < r.off {
		plen, _, err := r.recHdr()
		if err != nil {
			return 0, nil, err
		}
		r.pos += recHdrSize + int64(plen)
		r.cur++
	}
	// One read for the header and the read-ahead; the bytes past this
	// record, if any, are not looked at. A read that stops at the end of the
	// file is short, not failed.
	want := recHdrSize + r.ahead
	r.buf = grow(r.buf, want)
	got, err := r.f.ReadAt(r.buf[:want], r.pos)
	if got < recHdrSize {
		return 0, nil, fmt.Errorf("wal: reading record header at offset %d: %w", r.off, err)
	}
	plen, crc, err := r.parseHdr(r.buf)
	if err != nil {
		return 0, nil, err
	}
	if end := recHdrSize + plen; got < end {
		r.buf = grow(r.buf, end)
		if _, err := r.f.ReadAt(r.buf[got:end], r.pos+int64(got)); err != nil {
			return 0, nil, fmt.Errorf("wal: reading record at offset %d: %w", r.off, err)
		}
	}
	buf := r.buf[recHdrSize : recHdrSize+plen]
	if crc32.Checksum(buf, castagnoli) != crc {
		return 0, nil, fmt.Errorf("wal: CRC mismatch at offset %d", r.off)
	}
	off := r.off
	r.ahead = readAhead(r.ahead, plen)
	r.pos += recHdrSize + int64(plen)
	r.cur++
	r.off++
	return off, buf, nil
}

// grow returns buf with a length of at least n, its contents kept.
func grow(buf []byte, n int) []byte {
	if n <= cap(buf) {
		return buf[:cap(buf)]
	}
	return append(buf[:cap(buf)], make([]byte, n-cap(buf))...)
}

// recHdr reads and sanity-checks the record header at the current position.
func (r *Reader) recHdr() (plen int, crc uint32, err error) {
	r.buf = grow(r.buf, recHdrSize)
	if _, err := r.f.ReadAt(r.buf[:recHdrSize], r.pos); err != nil {
		return 0, 0, fmt.Errorf("wal: reading record header at offset %d: %w", r.off, err)
	}
	return r.parseHdr(r.buf)
}

// parseHdr sanity-checks the record header at the start of b.
func (r *Reader) parseHdr(b []byte) (plen int, crc uint32, err error) {
	plen = int(beU32(b[:4]))
	if plen <= 0 || plen > r.l.opt.maxRecordBytes() {
		return 0, 0, fmt.Errorf("wal: implausible record length %d at offset %d", plen, r.off)
	}
	return plen, beU32(b[4:8]), nil
}

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}
