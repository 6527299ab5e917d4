package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
)

// Machine state snapshots: a broker can persist its lazily built (or
// trained) state tables and restart warm, instead of re-paying lazy
// construction after every restart — the operational complement to the
// paper's training optimization. The snapshot is tied to the exact workload
// and option set via a fingerprint; loading into a machine built from a
// different workload is rejected.

const snapshotMagic uint64 = 0x5850555348534e31 // "XPUSHSN1"

// Fingerprint identifies the (workload, options) pair a snapshot belongs
// to.
func (m *Machine) Fingerprint() uint64 {
	h := fnv.New64a()
	var opts uint64
	if m.opts.TopDown {
		opts |= 1
	}
	if m.opts.Order != nil {
		opts |= 2
	}
	if m.opts.Early {
		opts |= 4
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], opts)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(m.afa.NumStates()))
	h.Write(buf[:])
	for _, q := range m.afa.Queries {
		io.WriteString(h, q.Source)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

type snapWriter struct {
	w   *bufio.Writer
	err error
}

func (sw *snapWriter) u64(v uint64) {
	if sw.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, sw.err = sw.w.Write(buf[:])
}

func (sw *snapWriter) i32(v int32) { sw.u64(uint64(uint32(v))) }

func (sw *snapWriter) ids(s []int32) {
	sw.u64(uint64(len(s)))
	for _, v := range s {
		sw.i32(v)
	}
}

type snapReader struct {
	r   *bufio.Reader
	err error
}

func (sr *snapReader) u64() uint64 {
	if sr.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(sr.r, buf[:]); err != nil {
		sr.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (sr *snapReader) i32() int32 { return int32(uint32(sr.u64())) }

// ids reads a length-prefixed id list. It grows the list as ids arrive, so
// a corrupt length costs what the input holds, not what it claims.
func (sr *snapReader) ids() []int32 {
	n := sr.u64()
	if sr.err != nil || n > 1<<28 {
		if sr.err == nil {
			sr.err = fmt.Errorf("xpush: corrupt snapshot (slice length %d)", n)
		}
		return nil
	}
	out := make([]int32, 0, min(n, 64))
	for ; n > 0 && sr.err == nil; n-- {
		out = append(out, sr.i32())
	}
	return out
}

// sets reads a count-prefixed list of id lists, grown as they arrive.
func (sr *snapReader) sets() [][]int32 {
	n := sr.u64()
	if sr.err == nil && (n == 0 || n > 1<<28) {
		sr.err = fmt.Errorf("xpush: corrupt snapshot (%d states)", n)
	}
	var out [][]int32
	for ; n > 0 && sr.err == nil; n-- {
		out = append(out, sr.ids())
	}
	return out
}

// WriteSnapshot serialises the machine's interned states and transition
// tables.
func (m *Machine) WriteSnapshot(w io.Writer) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	sw := &snapWriter{w: bufio.NewWriter(w)}
	sw.u64(snapshotMagic)
	sw.u64(m.Fingerprint())

	sw.u64(uint64(len(m.bsets)))
	for _, s := range m.bsets {
		sw.ids(s)
	}
	sw.u64(uint64(len(m.tsets)))
	for _, s := range m.tsets {
		sw.ids(s)
	}
	sw.u64(uint64(m.pushTab.len()))
	m.pushTab.each(func(k uint64, v int32) {
		sw.i32(int32(k >> 32))   // qt
		sw.i32(int32(uint32(k))) // sym
		sw.i32(v)
	})
	sw.u64(uint64(m.popTab.len()))
	m.popTab.each(func(k key128, e entry) {
		sw.i32(int32(k.lo >> 32))   // qb
		sw.i32(int32(uint32(k.lo))) // qt
		sw.i32(int32(uint32(k.hi))) // sym
		sw.i32(e.state)
		sw.ids(e.early)
	})
	sw.u64(uint64(m.addTab.len()))
	m.addTab.each(func(k uint64, v int32) {
		sw.i32(int32(k >> 32))   // qbs
		sw.i32(int32(uint32(k))) // qaux
		sw.i32(v)
	})
	sw.u64(uint64(m.valueTab.len()))
	m.valueTab.each(func(k key128, e entry) {
		sw.i32(int32(uint32(k.lo))) // qt
		sw.u64(k.hi)                // interval
		sw.i32(e.state)
		sw.ids(e.early)
	})
	sw.u64(uint64(m.sectTab.len()))
	m.sectTab.each(func(k uint64, v int32) {
		sw.i32(int32(k >> 32))   // qaux
		sw.i32(int32(uint32(k))) // qt
		sw.i32(v)
	})
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

// ReadSnapshot restores a snapshot into a machine built from the same
// workload and options, replacing any lazily built state — and with it every
// state id, like a flush: no cursor of the machine may be mid-document.
func (m *Machine) ReadSnapshot(r io.Reader) error {
	if m.inDoc {
		return fmt.Errorf("xpush: cannot load a snapshot mid-document")
	}
	sr := &snapReader{r: bufio.NewReader(r)}
	if sr.u64() != snapshotMagic {
		return fmt.Errorf("xpush: not a machine snapshot")
	}
	if fp := sr.u64(); fp != m.Fingerprint() {
		return fmt.Errorf("xpush: snapshot fingerprint mismatch (different workload or options)")
	}

	// The tables are read into fresh ones, every state, AFA state and filter
	// id checked against its range on the way; nothing is installed unless
	// the whole snapshot reads clean.
	bsets := sr.sets()
	tsets := sr.sets()
	nB, nT := len(bsets), len(tsets)
	inRange := func(n int, ids ...int32) {
		for _, id := range ids {
			if sr.err == nil && (id < 0 || int(id) >= n) {
				sr.err = fmt.Errorf("id %d out of range [0, %d)", id, n)
			}
		}
	}
	for _, sets := range [][][]int32{bsets, tsets} {
		for _, set := range sets {
			inRange(m.afa.NumStates(), set...)
		}
	}
	entryOf := func() entry {
		e := entry{state: sr.i32(), early: sr.ids()}
		inRange(nB, e.state)
		inRange(len(m.afa.Queries), e.early...)
		if len(e.early) == 0 {
			e.early = nil
		}
		return e
	}
	var pushTab, addTab, sectTab tab64
	var popTab, valueTab tabE
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		qt, sym, to := sr.i32(), sr.i32(), sr.i32()
		inRange(nT, qt, to)
		pushTab.put(packPush(qt, sym), to)
	}
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		qb, qt, sym := sr.i32(), sr.i32(), sr.i32()
		inRange(nB, qb)
		inRange(nT, qt)
		popTab.put(packPop(qb, qt, sym), entryOf())
	}
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		qbs, qaux, to := sr.i32(), sr.i32(), sr.i32()
		inRange(nB, qbs, qaux, to)
		addTab.put(packAdd(qbs, qaux), to)
	}
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		qt, interval := sr.i32(), sr.u64()
		inRange(nT, qt)
		valueTab.put(packValue(qt, int64(interval)), entryOf())
	}
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		qaux, qt, to := sr.i32(), sr.i32(), sr.i32()
		inRange(nB, qaux, to)
		inRange(nT, qt)
		sectTab.put(packAdd(qaux, qt), to)
	}
	if sr.err != nil {
		return fmt.Errorf("xpush: corrupt snapshot: %v", sr.err)
	}

	// Install: rebuild intern indexes and derived caches.
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bsets = bsets
	m.bintern = internTab{}
	m.baccept = make([][]int32, len(bsets))
	m.ctr.bstates.Store(int64(len(bsets)))
	m.ctr.bstateAFASum.Store(0)
	for i, s := range bsets {
		if i > 0 {
			m.bintern.add(hashIDs(s), int32(i))
			m.baccept[i] = m.accepting(s)
		}
		m.ctr.bstateAFASum.Add(int64(len(s)))
	}
	m.tsets = tsets
	m.tintern = internTab{}
	m.ttOf = make([][]int32, len(tsets))
	m.ctr.tstates.Store(int64(len(tsets)))
	for i, s := range tsets {
		if i > 0 {
			m.tintern.add(hashIDs(s), int32(i))
		}
		m.ttOf[i] = intersectSorted(m.trueTermAll, s, nil)
	}
	if !m.opts.TopDown {
		// The basic machine's single top-down state enables every
		// TrueTerminal.
		m.ttOf[0] = m.trueTermAll
	}
	m.pushTab, m.popTab, m.addTab, m.valueTab, m.sectTab = pushTab, popTab, addTab, valueTab, sectTab
	m.qt, m.qb = 0, 0
	m.stack = m.stack[:0]
	return nil
}
