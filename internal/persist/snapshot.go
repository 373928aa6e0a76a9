package persist

import (
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

// Export streams a snapshot's entries in key order: it calls emit once per
// block of entries and returns the first error emit returns. emit encodes
// the block before it returns, so the producer may reuse or mutate the
// block afterwards.
type Export[K cmp.Ordered] func(emit func(block []Entry[K]) error) error

// snapshotBuf is the size of the buffer snapshots are encoded into and
// decoded from; snapshotFlushAt is the fill level at which the writer hands
// it to the file, so an entry of up to 256 bytes never makes it grow.
const (
	snapshotBuf     = 1 << 16
	snapshotFlushAt = snapshotBuf - 256
)

// snapshotHeader is the byte length of the fields after the magic and
// before the entries: kind, sequence, entry count.
const snapshotHeader = 17

// snapshotEncoder encodes entries into one fixed buffer, handing it to w
// (and the running CRC) whenever it fills.
type snapshotEncoder[K cmp.Ordered] struct {
	w     io.Writer
	codec KeyCodec[K]
	buf   []byte
	crc   uint32
	want  int // entries the header announced
	n     int // entries encoded so far
}

func (e *snapshotEncoder[K]) flush() error {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// emit encodes one block of entries; it is the emit an Export receives.
func (e *snapshotEncoder[K]) emit(block []Entry[K]) error {
	if e.n += len(block); e.n > e.want {
		return fmt.Errorf("persist: snapshot export exceeds the %d entries announced", e.want)
	}
	for _, it := range block {
		e.buf = e.codec.Append(e.buf, it.Key)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(it.Weight))
		if len(e.buf) >= snapshotFlushAt {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// encodeSnapshot writes a whole snapshot image to w: the magic, the
// header, the count entries export produces, and the CRC. export runs
// inside it and streams straight into the encode buffer, which is written
// to w each time it fills; when export returns, at most one buffer's worth
// of entries has not yet been written. An export that produces other than
// count entries fails the encode.
func encodeSnapshot[K cmp.Ordered](w io.Writer, codec KeyCodec[K], kind uint8, seq uint64, count int, export Export[K]) error {
	// The magic stays outside the checksum so the CRC covers exactly the
	// variable content; corruption of the magic already fails the open.
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	e := &snapshotEncoder[K]{w: w, codec: codec, buf: make([]byte, 0, snapshotBuf), want: count}
	e.buf = append(e.buf, kind)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, seq)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(count))
	if err := export(e.emit); err != nil {
		return err
	}
	if e.n != count {
		return fmt.Errorf("persist: snapshot export produced %d entries, announced %d", e.n, count)
	}
	if err := e.flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(e.buf, e.crc))
	return err
}

// writeSnapshotFile writes the count entries export produces atomically to
// path: encodeSnapshot into a *.tmp sibling, then the fsync, the rename and
// the directory sync. A caller that paused writers for the export can
// resume them when export returns, before any of the durable steps.
func writeSnapshotFile[K cmp.Ordered](path string, codec KeyCodec[K], kind uint8, seq uint64, count int, export Export[K]) (err error) {
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
	if err = encodeSnapshot(f, codec, kind, seq, count, export); err != nil {
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

// readSnapshotStream verifies a snapshot file (structure and CRC, before
// anything reaches the callbacks) and streams its entries through entry in
// key order; start, if non-nil, first announces the entry count so the
// receiver can pre-size. Either callback may be nil. Callback errors abort
// the read unchanged.
func readSnapshotStream[K cmp.Ordered](path string, codec KeyCodec[K], wantKind uint8, start func(count int) error, entry func(Entry[K]) error) (seq uint64, count int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	return decodeSnapshot(f, fi.Size(), filepath.Base(path), codec, wantKind, start, entry)
}

// decodeSnapshot is readSnapshotStream over the size bytes of r; name
// labels errors. It reads the image twice through one snapshotBuf-sized
// buffer — a checksum pass, then a decode pass — so the memory a read
// needs does not grow with the snapshot. Structural failures wrap
// ErrCorrupt; a snapshot of the other kind is a *kindMismatchError
// (FuzzSnapshotDecode enforces both).
func decodeSnapshot[K cmp.Ordered](r io.ReaderAt, size int64, name string, codec KeyCodec[K], wantKind uint8, start func(count int) error, entry func(Entry[K]) error) (seq uint64, count int, err error) {
	bodyLen := size - int64(len(snapshotMagic)) - 4
	if bodyLen < snapshotHeader {
		return 0, 0, fmt.Errorf("%w: %s: not a snapshot", ErrCorrupt, name)
	}
	buf := make([]byte, snapshotBuf)
	if _, err := r.ReadAt(buf[:len(snapshotMagic)], 0); err != nil {
		return 0, 0, err
	}
	if string(buf[:len(snapshotMagic)]) != snapshotMagic {
		return 0, 0, fmt.Errorf("%w: %s: not a snapshot", ErrCorrupt, name)
	}

	// Pass 1: the checksum over the body, against the trailing CRC.
	body := io.NewSectionReader(r, int64(len(snapshotMagic)), bodyLen)
	var crc uint32
	for left := bodyLen; left > 0; {
		chunk := buf[:min(left, int64(len(buf)))]
		if _, err := io.ReadFull(body, chunk); err != nil {
			return 0, 0, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		left -= int64(len(chunk))
	}
	if _, err := r.ReadAt(buf[:4], size-4); err != nil {
		return 0, 0, err
	}
	if crc != binary.LittleEndian.Uint32(buf) {
		return 0, 0, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, name)
	}

	// Pass 2: decode the body. win is the read-ahead not yet decoded; it
	// refills when an entry does not decode from what is left of it, and
	// the buffer doubles only for a key larger than the whole buffer.
	if _, err := body.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var win []byte
	var read int64 // body bytes read into the buffer so far
	refill := func() error {
		if len(win) == len(buf) {
			buf = make([]byte, 2*len(buf))
		}
		kept := copy(buf, win)
		n, err := io.ReadFull(body, buf[kept:])
		if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
			return err
		}
		read += int64(n)
		win = buf[:kept+n]
		return nil
	}
	if err := refill(); err != nil {
		return 0, 0, err
	}
	if kind := win[0]; kind != wantKind {
		return 0, 0, &kindMismatchError{where: name, got: kindName(kind), want: kindName(wantKind)}
	}
	seq = binary.LittleEndian.Uint64(win[1:])
	n := binary.LittleEndian.Uint64(win[9:])
	win = win[snapshotHeader:]
	if n > uint64(bodyLen-snapshotHeader) {
		return 0, 0, fmt.Errorf("%w: %s: entry count exceeds file", ErrCorrupt, name)
	}
	if start != nil {
		if err := start(int(n)); err != nil {
			return 0, 0, err
		}
	}
	for i := uint64(0); i < n; i++ {
		var e Entry[K]
		for {
			key, rest, kerr := codec.Read(win)
			if kerr == nil && len(rest) >= 8 {
				e.Key = key
				e.Weight = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				win = rest[8:]
				break
			}
			if read == bodyLen {
				if kerr != nil {
					return 0, 0, fmt.Errorf("%w: %s: entry %d: %v", ErrCorrupt, name, i, kerr)
				}
				return 0, 0, fmt.Errorf("%w: %s: entry %d: truncated weight", ErrCorrupt, name, i)
			}
			if err := refill(); err != nil {
				return 0, 0, err
			}
		}
		if entry != nil {
			if err := entry(e); err != nil {
				return 0, 0, err
			}
		}
	}
	if len(win) != 0 || read != bodyLen {
		return 0, 0, fmt.Errorf("%w: %s: trailing bytes", ErrCorrupt, name)
	}
	return seq, int(n), nil
}

// kindMismatchError reports a snapshot or directory holding the other
// dataset kind than the store was opened as.
type kindMismatchError struct {
	where     string // snapshot file name or directory
	got, want string
}

func (e *kindMismatchError) Error() string {
	return fmt.Sprintf("persist: %s holds a %s dataset, store opened as %s", e.where, e.got, e.want)
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
