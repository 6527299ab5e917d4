package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// journalSlots is how many of the newest log offsets the match journal
// remembers (a power of two: slots are indexed by offset & (n-1)). It has to
// cover the in-flight window of every publisher plus the backlog a durable
// subscriber reconnects to before its pump is lapped and falls back to the
// engine pass; the benchmark's reconnect backlog is 2048 documents.
const journalSlots = 4096

// journalWait bounds how long a pump parks on a record nobody has journaled
// yet before filtering it itself. A publisher journals within a filter pass
// and a goroutine wake-up of its record becoming readable, so the bound is
// only ever reached by a record that no publish of this process owns (one
// written into the log from outside) or by a badly starved publisher; either
// way the engine pass gives the same deliveries, later.
const journalWait = 100 * time.Millisecond

// journalState is the outcome of a journal lookup.
type journalState int

const (
	journalHit       journalState = iota
	journalNotYet                 // the publisher owning the offset has appended but not filtered yet
	journalLapped                 // the slot has moved on to a newer offset
	journalPreboot                // the record was logged by an earlier process
	journalNewFilter              // journaled on a workload older than one of the reader's filters
	journalTimeout                // still not journaled after journalWait (set by the pump, not by get)
)

// journalMissReasons label xpushserve_durable_journal_misses_total, indexed by
// journalState - journalLapped.
var journalMissReasons = [...]string{"lapped", "preboot", "new_filter", "timeout"}

// journal is the publish-time match journal: for each of the newest
// journalSlots log offsets, the registry keys the machine matched when the
// document was published, so a durable pump routes a replayed document with
// a lookup instead of a second engine pass. Registry keys are filter ids,
// which no generation renumbers, so entries stay valid across subscribes,
// releases and compaction swaps. It lives in memory only: after a restart
// every retained record is journalPreboot.
type journal struct {
	boot uint64 // the log's NextOffset when the server started

	mu    sync.Mutex
	slots []journalSlot

	hits   atomic.Int64
	misses [len(journalMissReasons)]atomic.Int64
}

// journalSlot is one remembered record. keyHW is the keyHW (NumQueries) of
// the generation the document was filtered on (control.go): the entry
// answers for every registry key below it. keys is reused from one occupant
// to the next.
type journalSlot struct {
	set   bool
	off   uint64
	keyHW uint64
	keys  []uint64
}

func newJournal(slots int, boot uint64) *journal {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic("server: journal size must be a power of two")
	}
	return &journal{boot: boot, slots: make([]journalSlot, slots)}
}

// put records what the document at off matched. Publish workers finish out
// of order, so a put that arrives after its slot has moved on to a newer
// offset is dropped. A nil journal (no WAL) records nothing.
func (j *journal) put(off, keyHW uint64, keys []uint64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	sl := &j.slots[off&uint64(len(j.slots)-1)]
	if !sl.set || sl.off <= off {
		sl.set, sl.off, sl.keyHW = true, off, keyHW
		sl.keys = append(sl.keys[:0], keys...)
	}
	j.mu.Unlock()
}

// get looks the record at off up for a reader whose filters all have
// registry keys below needHW. On journalHit the matched keys are appended to
// dst[:0] (the slot's own slice is overwritten by later puts).
func (j *journal) get(off, needHW uint64, dst []uint64) ([]uint64, journalState) {
	if off < j.boot {
		return dst[:0], journalPreboot
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sl := &j.slots[off&uint64(len(j.slots)-1)]
	switch {
	case !sl.set || sl.off < off:
		return dst[:0], journalNotYet
	case sl.off > off:
		return dst[:0], journalLapped
	case sl.keyHW < needHW:
		return dst[:0], journalNewFilter
	}
	return append(dst[:0], sl.keys...), journalHit
}

// count tallies one pump lookup's final outcome.
func (j *journal) count(st journalState) {
	if st == journalHit {
		j.hits.Add(1)
		return
	}
	j.misses[st-journalLapped].Add(1)
}

func (j *journal) missTotal() int64 {
	var n int64
	for i := range j.misses {
		n += j.misses[i].Load()
	}
	return n
}
