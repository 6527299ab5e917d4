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

func (sr *snapReader) ids() []int32 {
	n := sr.u64()
	if sr.err != nil || n > 1<<28 {
		if sr.err == nil {
			sr.err = fmt.Errorf("xpush: corrupt snapshot (slice length %d)", n)
		}
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = sr.i32()
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

	nB := sr.u64()
	if sr.err != nil || nB == 0 || nB > 1<<28 {
		return fmt.Errorf("xpush: corrupt snapshot: %v", sr.err)
	}
	bsets := make([][]int32, nB)
	for i := range bsets {
		bsets[i] = sr.ids()
	}
	nT := sr.u64()
	if sr.err != nil || nT == 0 || nT > 1<<28 {
		return fmt.Errorf("xpush: corrupt snapshot: %v", sr.err)
	}
	tsets := make([][]int32, nT)
	for i := range tsets {
		tsets[i] = sr.ids()
	}
	type i32Rec struct {
		a, b, c int32
		val     int32
	}
	type entryRec struct {
		a, b, c  int32
		interval uint64
		e        entry
	}
	pushRecs := make([]i32Rec, 0)
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		pushRecs = append(pushRecs, i32Rec{a: sr.i32(), b: sr.i32(), val: sr.i32()})
	}
	popRecs := make([]entryRec, 0)
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		r := entryRec{a: sr.i32(), b: sr.i32(), c: sr.i32()}
		r.e.state = sr.i32()
		r.e.early = sr.ids()
		if len(r.e.early) == 0 {
			r.e.early = nil
		}
		popRecs = append(popRecs, r)
	}
	addRecs := make([]i32Rec, 0)
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		addRecs = append(addRecs, i32Rec{a: sr.i32(), b: sr.i32(), val: sr.i32()})
	}
	valueRecs := make([]entryRec, 0)
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		r := entryRec{a: sr.i32()}
		r.interval = sr.u64()
		r.e.state = sr.i32()
		r.e.early = sr.ids()
		if len(r.e.early) == 0 {
			r.e.early = nil
		}
		valueRecs = append(valueRecs, r)
	}
	sectRecs := make([]i32Rec, 0)
	for i, n := uint64(0), sr.u64(); i < n && sr.err == nil; i++ {
		sectRecs = append(sectRecs, i32Rec{a: sr.i32(), b: sr.i32(), val: sr.i32()})
	}
	if sr.err != nil {
		return fmt.Errorf("xpush: corrupt snapshot: %v", sr.err)
	}

	// Validate state references before installing.
	checkB := func(id int32) error {
		if id < 0 || int(id) >= len(bsets) {
			return fmt.Errorf("xpush: corrupt snapshot: bottom-up state %d out of range", id)
		}
		return nil
	}
	checkT := func(id int32) error {
		if id < 0 || int(id) >= len(tsets) {
			return fmt.Errorf("xpush: corrupt snapshot: top-down state %d out of range", id)
		}
		return nil
	}
	nStates := int32(m.afa.NumStates())
	for _, set := range bsets {
		for _, s := range set {
			if s < 0 || s >= nStates {
				return fmt.Errorf("xpush: corrupt snapshot: AFA state %d out of range", s)
			}
		}
	}
	for _, r := range pushRecs {
		if err := checkT(r.a); err != nil {
			return err
		}
		if err := checkT(r.val); err != nil {
			return err
		}
	}
	for _, r := range popRecs {
		if err := checkB(r.a); err != nil {
			return err
		}
		if err := checkT(r.b); err != nil {
			return err
		}
		if err := checkB(r.e.state); err != nil {
			return err
		}
	}
	for _, r := range addRecs {
		if err := checkB(r.a); err != nil {
			return err
		}
		if err := checkB(r.b); err != nil {
			return err
		}
		if err := checkB(r.val); err != nil {
			return err
		}
	}
	for _, r := range valueRecs {
		if err := checkT(r.a); err != nil {
			return err
		}
		if err := checkB(r.e.state); err != nil {
			return err
		}
	}
	for _, r := range sectRecs {
		if err := checkB(r.a); err != nil {
			return err
		}
		if err := checkT(r.b); err != nil {
			return err
		}
		if err := checkB(r.val); err != nil {
			return err
		}
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
	m.pushTab = tab64{}
	for _, r := range pushRecs {
		m.pushTab.put(packPush(r.a, r.b), r.val)
	}
	m.popTab = tabE{}
	for _, r := range popRecs {
		m.popTab.put(packPop(r.a, r.b, r.c), r.e)
	}
	m.addTab = tab64{}
	for _, r := range addRecs {
		m.addTab.put(packAdd(r.a, r.b), r.val)
	}
	m.valueTab = tabE{}
	for _, r := range valueRecs {
		m.valueTab.put(packValue(r.a, int64(r.interval)), r.e)
	}
	m.sectTab = tab64{}
	for _, r := range sectRecs {
		m.sectTab.put(packAdd(r.a, r.b), r.val)
	}
	m.qt, m.qb = 0, 0
	m.stack = m.stack[:0]
	return nil
}
