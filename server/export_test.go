package server

// NewWithJournalSlots is New with the match journal's ring size chosen by the
// test: 0 makes every durable replay take the engine pass (the reference side
// of TestJournalMatchesEnginePass), a small power of two laps cheaply.
func NewWithJournalSlots(cfg Config, slots int) (*Server, error) {
	return newServer(cfg, slots, compactRemovedSlots)
}

// NewWithMaxRemoved is New with the removed-slot compaction trigger chosen by
// the test: 1 compacts in the background after every release.
func NewWithMaxRemoved(cfg Config, n int) (*Server, error) {
	return newServer(cfg, journalSlots, n)
}

// JournalCounts reports the pumps' journal hits and misses so far.
func (s *Server) JournalCounts() (hits, misses int64) {
	if s.journal == nil {
		return 0, 0
	}
	return s.journal.hits.Load(), s.journal.missTotal()
}
