package persist

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// SyncPolicy selects when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation is
	// durable before the in-memory structure applies it.
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes and fsyncs on a background timer (the Store's
	// Options.SyncInterval): a crash loses at most one interval of
	// acknowledged mutations.
	SyncInterval
	// SyncNone leaves flushing to the OS and the Store's rotate/close
	// paths: fastest, weakest.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the flag spellings "always", "interval", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, interval, or none)", s)
}

// segmentName and snapshotName format the on-disk file names; sequence
// numbers are fixed-width hex so lexical order is numeric order.
func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeq extracts the sequence number from a segment or snapshot name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// File is the surface a WAL segment needs from its backing file. Stores
// open segments through Options.OpenFile, so durability tests can inject a
// file whose Sync blocks or fails — the seam the group-commit ACK tests
// stand on. Production stores use *os.File.
type File interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

func defaultOpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
}

// walWriter is one open WAL segment: buffered appends with the frame codec,
// synced per policy.
type walWriter struct {
	f     File
	bw    *bufio.Writer
	size  int64 // bytes written (valid prefix + buffered)
	dirty bool  // bytes not yet fsynced
}

// openSegment opens (creating if needed) the segment file for appending,
// first truncating it to validLen — the readable prefix a prior replay
// measured — so a torn tail from a crash never precedes new records.
func openSegment(dir string, seq uint64, validLen int64, open func(string) (File, error)) (*walWriter, error) {
	path := filepath.Join(dir, segmentName(seq))
	f, err := open(path)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), size: validLen}, nil
}

// append encodes rec and writes its frame; the caller decides when to sync.
func (w *walWriter) append(frame []byte) error {
	n, err := w.bw.Write(frame)
	w.size += int64(n)
	if err != nil {
		return err
	}
	w.dirty = true
	return nil
}

// flush pushes buffered frames into the kernel without fsyncing — the
// group-commit committer's first half, run under the store lock so it
// never interleaves with a concurrent append. The fsync half runs outside
// the lock.
func (w *walWriter) flush() error { return w.bw.Flush() }

// sync flushes buffered frames and fsyncs the file.
func (w *walWriter) sync() error {
	if !w.dirty {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// close syncs and closes the segment file.
func (w *walWriter) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayScratch is the reusable decode state one recovery pass threads
// through every segment it replays: the payload buffer and the record
// entries backing are recycled from record to record, so a long WAL tail
// replays without per-record allocation. The Record handed to fn aliases
// this scratch and must not be retained across calls.
type replayScratch[K cmp.Ordered] struct {
	payload []byte
	entries []Entry[K]
}

// replaySegment streams the records of one segment file through fn, in
// append order. It stops at the first frame that fails a structural check
// and reports the length of the valid prefix and whether anything followed
// it (a torn or corrupt tail); a missing file replays as empty. fn errors
// abort the replay unchanged.
func replaySegment[K cmp.Ordered](path string, codec KeyCodec[K], scratch *replayScratch[K], fn func(Record[K]) error) (validLen int64, records int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, false, nil
		}
		return 0, 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var header [frameHeader]byte
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			// Clean EOF on a frame boundary ends the segment; anything else
			// (partial header, read error) is a torn tail.
			return validLen, records, err != io.EOF, nil
		}
		length := binary.LittleEndian.Uint32(header[:])
		sum := binary.LittleEndian.Uint32(header[4:])
		if length == 0 || length > maxFrame {
			return validLen, records, true, nil
		}
		if cap(scratch.payload) < int(length) {
			scratch.payload = make([]byte, length)
		}
		payload := scratch.payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return validLen, records, true, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return validLen, records, true, nil
		}
		rec, derr := decodeRecordInto(codec, payload, scratch.entries[:0])
		if derr != nil {
			return validLen, records, true, nil
		}
		scratch.entries = rec.Entries[:0]
		if err := fn(rec); err != nil {
			return validLen, records, false, err
		}
		validLen += int64(frameHeader) + int64(length)
		records++
	}
}
