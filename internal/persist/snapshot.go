package persist

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"
)

// Dataset kinds recorded in snapshot headers, so a weighted dataset can
// never silently load an unweighted dataset's state (or vice versa).
const (
	KindUnweighted = uint8(1)
	KindWeighted   = uint8(2)
)

// snapshotMagic opens every snapshot file.
const snapshotMagic = "irssnap1"

// Snapshot file format (all integers little-endian):
//
//	8 bytes magic "irssnap1"
//	u8  kind (KindUnweighted or KindWeighted)
//	u64 covered WAL sequence (records in segments <= seq are included)
//	u64 entry count
//	entries: key bytes (KeyCodec) + f64 weight each, in key order
//	u32 CRC-32 (IEEE) of everything after the magic
//
// Snapshots are written to a *.tmp sibling, fsynced, then renamed into
// place, so a readable snapshot file is always complete; the trailing CRC
// guards against later bit rot.

// writeSnapshotFile writes entries atomically to path.
func writeSnapshotFile[K cmp.Ordered](path string, codec KeyCodec[K], kind uint8, seq uint64, entries []Entry[K]) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	sum := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<16)
	// The magic stays outside the checksum so the CRC covers exactly the
	// variable content; corruption of the magic already fails the open.
	if _, err = f.WriteString(snapshotMagic); err != nil {
		return err
	}
	var head [17]byte
	head[0] = kind
	binary.LittleEndian.PutUint64(head[1:], seq)
	binary.LittleEndian.PutUint64(head[9:], uint64(len(entries)))
	if _, err = bw.Write(head[:]); err != nil {
		return err
	}
	scratch := make([]byte, 0, 64)
	for _, e := range entries {
		scratch = codec.Append(scratch[:0], e.Key)
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(e.Weight))
		if _, err = bw.Write(scratch); err != nil {
			return err
		}
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum.Sum32())
	if _, err = f.Write(tail[:]); err != nil {
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
	return syncDir(filepath.Dir(path))
}

// readSnapshotFile loads and verifies a snapshot file, materializing its
// entries.
func readSnapshotFile[K cmp.Ordered](path string, codec KeyCodec[K], wantKind uint8) (seq uint64, entries []Entry[K], err error) {
	seq, _, err = readSnapshotStream(path, codec, wantKind,
		func(count int) error {
			entries = make([]Entry[K], 0, count)
			return nil
		},
		func(e Entry[K]) error {
			entries = append(entries, e)
			return nil
		})
	if err != nil {
		return 0, nil, err
	}
	return seq, entries, nil
}

// readSnapshotStream verifies a snapshot file (structure and CRC, before
// anything reaches the callbacks) and streams its entries through entry in
// key order; start, if non-nil, first announces the entry count so the
// receiver can pre-size. Either callback may be nil. Callback errors abort
// the read unchanged.
func readSnapshotStream[K cmp.Ordered](path string, codec KeyCodec[K], wantKind uint8, start func(count int) error, entry func(Entry[K]) error) (seq uint64, count int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(raw) < len(snapshotMagic)+17+4 || string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return 0, 0, fmt.Errorf("%w: %s: not a snapshot", ErrCorrupt, filepath.Base(path))
	}
	body, tail := raw[len(snapshotMagic):len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, 0, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, filepath.Base(path))
	}
	kind := body[0]
	if kind != wantKind {
		return 0, 0, fmt.Errorf("persist: %s holds a %s dataset, store opened as %s",
			filepath.Base(path), kindName(kind), kindName(wantKind))
	}
	seq = binary.LittleEndian.Uint64(body[1:])
	n := binary.LittleEndian.Uint64(body[9:])
	rest := body[17:]
	if n > uint64(len(rest)) {
		return 0, 0, fmt.Errorf("%w: %s: entry count exceeds file", ErrCorrupt, filepath.Base(path))
	}
	if start != nil {
		if err := start(int(n)); err != nil {
			return 0, 0, err
		}
	}
	for i := uint64(0); i < n; i++ {
		var e Entry[K]
		e.Key, rest, err = codec.Read(rest)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: %s: entry %d: %v", ErrCorrupt, filepath.Base(path), i, err)
		}
		if len(rest) < 8 {
			return 0, 0, fmt.Errorf("%w: %s: entry %d: truncated weight", ErrCorrupt, filepath.Base(path), i)
		}
		e.Weight = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		if entry != nil {
			if err := entry(e); err != nil {
				return 0, 0, err
			}
		}
	}
	if len(rest) != 0 {
		return 0, 0, fmt.Errorf("%w: %s: trailing bytes", ErrCorrupt, filepath.Base(path))
	}
	return seq, int(n), nil
}

func kindName(kind uint8) string {
	switch kind {
	case KindUnweighted:
		return "unweighted"
	case KindWeighted:
		return "weighted"
	default:
		return fmt.Sprintf("kind(%d)", kind)
	}
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Platforms that cannot fsync a directory report EINVAL or ENOTSUP; those
// are tolerated. Any other failure is a real durability error and is
// returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
