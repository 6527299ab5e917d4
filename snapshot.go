package xpushstream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Workload snapshots are the engine's one persistence format. The machine
// state alone (Engine.writeSnapshot) is bound to the exact queries and
// configuration it came from, so a workload snapshot is self-describing: it
// records the filter texts and ids, the id high-water mark and the removed
// mask alongside the machine state, so OpenWorkloadSnapshot can reconstruct
// the whole engine (warm, every filter under its id) from the file alone
// plus the Config.
//
// Format version 2 (XPWSNAP2), little-endian u64s:
//
//	magic, NumQueries, layer count (1),
//	per layer: filter count, then per filter: id, text length, text,
//	one mask byte per filter (1 = masked),
//	the machine state (Engine.writeSnapshot).
//
// Files written when engines ran a machine per tail layer hold several
// layers; their filters are read in order as one workload, and their
// machine states, which no single machine can take, are skipped. Version 1
// (XPWSNAP1) has neither ids nor the high-water mark: a filter's id is its
// position, and NumQueries is the filter count.

// The workload snapshot magics; the trailing byte is the format version.
var (
	workloadSnapshotMagicV1 = [8]byte{'X', 'P', 'W', 'S', 'N', 'A', 'P', '1'}
	workloadSnapshotMagic   = [8]byte{'X', 'P', 'W', 'S', 'N', 'A', 'P', '2'}
)

// Sanity bounds for reading untrusted snapshot files: counts, ids and
// string lengths beyond these indicate corruption, not a real workload.
const (
	maxSnapshotQueries  = 1 << 24 // 16M filters
	maxSnapshotQueryLen = 1 << 20 // 1 MiB per filter text
	maxSnapshotID       = 1 << 62
)

// snapWriter writes little-endian u64s and bytes, keeping the first error.
type snapWriter struct {
	w   io.Writer
	err error
}

func (sw *snapWriter) write(p []byte) {
	if sw.err == nil {
		_, sw.err = sw.w.Write(p)
	}
}

func (sw *snapWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	sw.write(b[:])
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteWorkloadSnapshot persists the engine's queries and ids, removed
// mask, and lazily built (or trained) machine state. Restore with
// OpenWorkloadSnapshot under the same Config. The engine must not be
// filtering while the snapshot is written.
func (e *Engine) WriteWorkloadSnapshot(w io.Writer) error {
	sw := &snapWriter{w: w}
	sw.write(workloadSnapshotMagic[:])
	sw.u64(uint64(e.nextID))
	sw.u64(1)
	sw.u64(uint64(len(e.ids)))
	for s, id := range e.ids {
		sw.u64(uint64(id))
		sw.u64(uint64(len(e.queries[s])))
		sw.write([]byte(e.queries[s]))
	}
	mask := make([]byte, len(e.removed))
	for s, r := range e.removed {
		if r {
			mask[s] = 1
		}
	}
	sw.write(mask)
	if sw.err != nil {
		return sw.err
	}
	return e.writeSnapshot(w)
}

// OpenWorkloadSnapshot reads a snapshot written by WriteWorkloadSnapshot
// and returns a warm engine: the recorded workload is compiled under its
// recorded ids and cfg, and the persisted machine state is restored into
// it. cfg must equal the configuration the snapshot was taken under. A
// corrupt file is an error, and memory grows only with the bytes the file
// actually holds.
func OpenWorkloadSnapshot(r io.Reader, cfg Config) (*Engine, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("xpushstream: reading snapshot header: %w", err)
	}
	v2 := magic == workloadSnapshotMagic
	if !v2 && magic != workloadSnapshotMagicV1 {
		return nil, fmt.Errorf("xpushstream: not a workload snapshot (bad magic %q)", magic[:])
	}
	var hw uint64
	if v2 {
		var err error
		if hw, err = readU64(r); err != nil {
			return nil, err
		}
		if hw > maxSnapshotID {
			return nil, fmt.Errorf("xpushstream: snapshot has implausible id high-water mark %d", hw)
		}
	}
	nLayers, err := readU64(r)
	if err != nil {
		return nil, err
	}
	if nLayers == 0 || nLayers > maxSnapshotQueries {
		return nil, fmt.Errorf("xpushstream: snapshot has implausible layer count %d", nLayers)
	}
	var queries []string
	var ids []int
	total, next := 0, uint64(0) // next: the least id the next filter may have
	for ; nLayers > 0; nLayers-- {
		n, err := readU64(r)
		if err != nil {
			return nil, err
		}
		if n > maxSnapshotQueries-uint64(total) {
			return nil, fmt.Errorf("xpushstream: snapshot has implausible query count")
		}
		for ; n > 0; n-- {
			id := next
			if v2 {
				if id, err = readU64(r); err != nil {
					return nil, err
				}
				if id < next || id >= hw {
					return nil, fmt.Errorf("xpushstream: snapshot filter id %d out of order", id)
				}
			}
			size, err := readU64(r)
			if err != nil {
				return nil, err
			}
			if size > maxSnapshotQueryLen {
				return nil, fmt.Errorf("xpushstream: snapshot query longer than %d bytes", maxSnapshotQueryLen)
			}
			text, err := readN(r, size)
			if err != nil {
				return nil, err
			}
			queries = append(queries, string(text))
			ids = append(ids, int(id))
			next = id + 1
			total++
		}
	}
	if !v2 {
		hw = next
	}
	mask, err := readN(r, uint64(total))
	if err != nil {
		return nil, err
	}
	e, err := Compile(queries, cfg)
	if err != nil {
		return nil, fmt.Errorf("xpushstream: recompiling snapshot workload: %w", err)
	}
	e.ids = ids
	e.nextID = int(hw)
	for s, m := range mask {
		if m != 0 {
			e.removed[s] = true
			e.masked++
		}
	}
	if err := e.readSnapshot(r); err != nil {
		return nil, fmt.Errorf("xpushstream: restoring machine state: %w", err)
	}
	return e, nil
}

// WriteFileAtomic writes a file crash-atomically: the content goes to a
// temporary file in the target's directory, is flushed and fsynced, and only
// then renamed over path — a crash (or a write error) at any point leaves
// either the previous file or nothing, never a truncated half-write. The
// directory entry is fsynced best-effort so the rename itself survives a
// crash.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// SaveWorkloadSnapshot writes a workload snapshot to path crash-atomically
// (see WriteFileAtomic). The engine must not be filtering during the call.
func (e *Engine) SaveWorkloadSnapshot(path string) error {
	return WriteFileAtomic(path, e.WriteWorkloadSnapshot)
}
