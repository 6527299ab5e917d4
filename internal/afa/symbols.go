package afa

// Symbols interns element and attribute labels to dense int32 ids so state
// sets and transition tables work on integers. Attribute labels use the "@"
// prefix convention of the sax package.
//
// The lookup index is a flat open-addressing table probed by an FNV-1a hash
// of the label bytes, with byte-slice and string entry points that hash
// identically. The byte entry points let the scanner resolve names straight
// from the input buffer without materialising a string per event.

// Reserved symbol ids.
const (
	// SymAnyElem is the * wildcard (any element label).
	SymAnyElem int32 = 0
	// SymAnyAttr is the @* wildcard (any attribute label).
	SymAnyAttr int32 = 1
	// SymOtherElem stands for every element label that occurs in no
	// query. All such labels behave identically (only wildcard
	// transitions can fire on them), so mapping them to one symbol lets
	// the lazy transition tables share their entries.
	SymOtherElem int32 = 2
	// SymOtherAttr is the attribute counterpart of SymOtherElem.
	SymOtherAttr int32 = 3
)

// Symbols is an interning table for labels.
type Symbols struct {
	slots  []int32 // open-addressing index into names; -1 marks empty
	names  []string
	isAttr []bool
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashLabelBytes(label []byte) uint64 {
	h := fnvOffset64
	for _, c := range label {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

func hashLabelString(label string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime64
	}
	return h
}

// NewSymbols returns a table with the wildcards and unknown-label sentinels
// pre-interned.
func NewSymbols() *Symbols {
	s := &Symbols{slots: newSlots(16)}
	for i, n := range []string{"*", "@*", "⟨elem⟩", "⟨attr⟩"} {
		s.names = append(s.names, n)
		s.isAttr = append(s.isAttr, i == 1 || i == 3)
		s.insert(hashLabelString(n), int32(i))
	}
	return s
}

func newSlots(n int) []int32 {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = -1
	}
	return slots
}

// insert places an id in the slot index; the caller guarantees the label is
// not already present and that there is room.
func (s *Symbols) insert(h uint64, id int32) {
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s.slots[i] < 0 {
			s.slots[i] = id
			return
		}
	}
}

func (s *Symbols) grow() {
	s.slots = newSlots(len(s.slots) * 2)
	for id, name := range s.names {
		s.insert(hashLabelString(name), int32(id))
	}
}

// lookupString probes for a label; returns (id, true) when present.
func (s *Symbols) lookupString(label string) (int32, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := hashLabelString(label) & mask; ; i = (i + 1) & mask {
		id := s.slots[i]
		if id < 0 {
			return 0, false
		}
		if s.names[id] == label {
			return id, true
		}
	}
}

// lookupBytes is lookupString for a borrowed byte slice; the string(label)
// conversion in the comparison does not allocate.
func (s *Symbols) lookupBytes(label []byte) (int32, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := hashLabelBytes(label) & mask; ; i = (i + 1) & mask {
		id := s.slots[i]
		if id < 0 {
			return 0, false
		}
		if s.names[id] == string(label) {
			return id, true
		}
	}
}

// InputSymBytes maps a SAX event label, borrowed, to the symbol the machine
// should use: known labels map to their interned id; unknown labels collapse
// to the shared sentinel for their node class. It never allocates.
func (s *Symbols) InputSymBytes(label []byte) int32 {
	if id, ok := s.lookupBytes(label); ok {
		return id
	}
	if len(label) > 0 && label[0] == '@' {
		return SymOtherAttr
	}
	return SymOtherElem
}

// Intern returns the id for a label, creating it if new. Labels beginning
// with '@' are attribute labels.
func (s *Symbols) Intern(label string) int32 {
	if id, ok := s.lookupString(label); ok {
		return id
	}
	if (len(s.names)+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	id := int32(len(s.names))
	s.names = append(s.names, label)
	s.isAttr = append(s.isAttr, len(label) > 0 && label[0] == '@')
	s.insert(hashLabelString(label), id)
	return id
}

// Lookup returns the id for a label without creating it; ok is false for
// unknown labels.
func (s *Symbols) Lookup(label string) (int32, bool) {
	return s.lookupString(label)
}

// Name returns the label for an id.
func (s *Symbols) Name(id int32) string { return s.names[id] }

// IsAttr reports whether the id denotes an attribute label (or @*).
func (s *Symbols) IsAttr(id int32) bool { return s.isAttr[id] }

// Len returns the number of interned symbols, wildcards included.
func (s *Symbols) Len() int { return len(s.names) }

// Matches reports whether a transition labeled sym fires on an input label
// in (a concrete element or attribute symbol): exact match, or the
// appropriate wildcard.
func (s *Symbols) Matches(sym, in int32) bool {
	if sym == in {
		return true
	}
	if sym == SymAnyElem {
		return !s.isAttr[in]
	}
	if sym == SymAnyAttr {
		return s.isAttr[in]
	}
	return false
}
