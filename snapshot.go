package xpushstream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Workload snapshots. Engine.WriteSnapshot/ReadSnapshot persist only the
// machine state and require the caller to rebuild an engine with the exact
// same queries, layer structure, and configuration first — fine for a
// process checkpointing itself, awkward for a broker restarting from disk.
// A workload snapshot is self-describing: it records the filter texts, the
// layer partition, and the removed mask alongside the machine state, so
// OpenWorkloadSnapshot can reconstruct the whole engine (warm) from the
// file alone plus the Config.

// workloadSnapshotMagic identifies the self-describing snapshot format.
// The trailing byte is a format version.
var workloadSnapshotMagic = [8]byte{'X', 'P', 'W', 'S', 'N', 'A', 'P', '1'}

// Sanity bounds for reading untrusted snapshot files: counts and string
// lengths beyond these indicate corruption, not a real workload.
const (
	maxSnapshotQueries  = 1 << 24 // 16M filters
	maxSnapshotQueryLen = 1 << 20 // 1 MiB per filter text
)

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteWorkloadSnapshot persists the engine's queries, layer structure,
// removed mask, and lazily built (or trained) machine state. Restore with
// OpenWorkloadSnapshot under the same Config. The engine must not be
// filtering while the snapshot is written.
func (e *Engine) WriteWorkloadSnapshot(w io.Writer) error {
	if _, err := w.Write(workloadSnapshotMagic[:]); err != nil {
		return err
	}
	if err := writeU64(w, uint64(len(e.layers))); err != nil {
		return err
	}
	for li := range e.layers {
		lo := e.layerOff[li]
		hi := len(e.queries)
		if li+1 < len(e.layerOff) {
			hi = e.layerOff[li+1]
		}
		if err := writeU64(w, uint64(hi-lo)); err != nil {
			return err
		}
		for _, q := range e.queries[lo:hi] {
			if err := writeU64(w, uint64(len(q))); err != nil {
				return err
			}
			if _, err := io.WriteString(w, q); err != nil {
				return err
			}
		}
	}
	mask := make([]byte, len(e.removed))
	for i, r := range e.removed {
		if r {
			mask[i] = 1
		}
	}
	if _, err := w.Write(mask); err != nil {
		return err
	}
	return e.WriteSnapshot(w)
}

// OpenWorkloadSnapshot reads a snapshot written by WriteWorkloadSnapshot
// and returns a warm engine: the recorded workload is recompiled layer by
// layer (Compile for the base, then one machine per recorded tail layer with
// the tier rule off, so the partition matches the snapshot exactly whatever
// rule produced it) under cfg, and the persisted machine state is restored
// into it. cfg must equal the configuration the
// snapshot was taken under.
func OpenWorkloadSnapshot(r io.Reader, cfg Config) (*Engine, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("xpushstream: reading snapshot header: %w", err)
	}
	if magic != workloadSnapshotMagic {
		return nil, fmt.Errorf("xpushstream: not a workload snapshot (bad magic %q)", magic[:])
	}
	nLayers, err := readU64(r)
	if err != nil {
		return nil, err
	}
	if nLayers == 0 || nLayers > maxSnapshotQueries {
		return nil, fmt.Errorf("xpushstream: snapshot has implausible layer count %d", nLayers)
	}
	layers := make([][]string, nLayers)
	total := 0
	for li := range layers {
		n, err := readU64(r)
		if err != nil {
			return nil, err
		}
		if n > maxSnapshotQueries || total+int(n) > maxSnapshotQueries {
			return nil, fmt.Errorf("xpushstream: snapshot has implausible query count")
		}
		layers[li] = make([]string, n)
		for qi := range layers[li] {
			l, err := readU64(r)
			if err != nil {
				return nil, err
			}
			if l > maxSnapshotQueryLen {
				return nil, fmt.Errorf("xpushstream: snapshot query longer than %d bytes", maxSnapshotQueryLen)
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			layers[li][qi] = string(buf)
		}
		total += int(n)
	}
	mask := make([]byte, total)
	if _, err := io.ReadFull(r, mask); err != nil {
		return nil, err
	}
	e, err := Compile(layers[0], cfg)
	if err != nil {
		return nil, fmt.Errorf("xpushstream: recompiling snapshot workload: %w", err)
	}
	for _, lq := range layers[1:] {
		if e, err = e.withQueries(lq, false); err != nil {
			return nil, fmt.Errorf("xpushstream: recompiling snapshot layer: %w", err)
		}
	}
	for i, m := range mask {
		if m != 0 {
			e.removed[i] = true
		}
	}
	if err := e.ReadSnapshot(r); err != nil {
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
