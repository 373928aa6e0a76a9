// Package persist is the durability layer under irsd: a binary write-ahead
// log of dataset mutations plus point-in-time snapshots, managed per
// dataset by a Store. The serving core (internal/server) appends to the WAL
// inside the same coalesced flushes that mutate the in-memory structures,
// so durability amortizes across concurrent clients exactly like sampling
// does; recovery loads the newest snapshot and replays the WAL tail.
//
// # On-disk layout
//
// A Store owns one directory per dataset:
//
//	wal-<seq>.log    WAL segments, in ascending sequence order
//	snap-<seq>.snap  snapshots; snap-S covers every record in segments <= S
//	*.tmp            in-flight snapshot writes, discarded at open
//
// The recovery invariant: snapshot S holds the dataset state after every
// record in segments with sequence <= S and none from later segments, so
// recovery = load the newest readable snapshot, then replay segments > S in
// order. A snapshot commit purges the segments it covers (the compaction
// step), bounding log growth.
//
// # WAL record format
//
// Each record is one CRC-framed mutation batch:
//
//	u32  payload length (little-endian)
//	u32  CRC-32 (IEEE) of the payload
//	payload: u8 op | u32 count | count entries
//
// Insert and update entries are key bytes followed by a float64 weight;
// delete entries are key bytes only. Keys are encoded by the Store's
// KeyCodec (Float64Keys for the serving layer). A frame that fails the
// length, CRC, or payload checks marks the end of the readable prefix:
// replay of the final segment truncates there (a torn tail from a crash
// mid-append), while a bad frame in a non-final segment is corruption and
// fails recovery.
package persist

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"github.com/irsgo/irs/internal/weighted"
)

// Op identifies one WAL record type.
type Op uint8

const (
	// OpInsert stores its entries (duplicate keys allowed).
	OpInsert Op = 1
	// OpDelete removes one occurrence of each entry's key (weights unused).
	OpDelete Op = 2
	// OpUpdate sets the weight of one occurrence of each entry's key.
	OpUpdate Op = 3
)

func (o Op) valid() bool { return o == OpInsert || o == OpDelete || o == OpUpdate }

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Entry is one key (with, for insert and update records, its weight): the
// engine's own weighted.Item, so the serving layer stages its batches as-is.
type Entry[K cmp.Ordered] = weighted.Item[K]

// Record is one decoded WAL record: a batch of entries under one op.
type Record[K cmp.Ordered] struct {
	Op      Op
	Entries []Entry[K]
}

// KeyCodec serializes keys of one type. Append writes a key's encoding to
// dst; Read decodes one key from the front of b and returns the rest.
// Encodings must be self-delimiting (fixed width, or length-prefixed).
//
// A fixed-width codec may also set Width, the bytes Append writes per key,
// and AppendEntries, which appends a block of snapshot entries — each key
// as Append writes it, then its weight's 8 little-endian IEEE-754 bytes —
// in one call. Snapshot writers then encode a block at a time instead of
// calling Append once per entry.
type KeyCodec[K cmp.Ordered] struct {
	Append func(dst []byte, key K) []byte
	Read   func(b []byte) (key K, rest []byte, err error)

	Width         int
	AppendEntries func(dst []byte, entries []Entry[K]) []byte
}

// Float64Keys encodes float64 keys as 8 little-endian IEEE-754 bytes — the
// codec of the float64-keyed serving layer.
func Float64Keys() KeyCodec[float64] {
	return KeyCodec[float64]{
		Append: func(dst []byte, key float64) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(key))
		},
		Read: func(b []byte) (float64, []byte, error) {
			if len(b) < 8 {
				return 0, nil, errShortKey
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
		},
		Width: 8,
		AppendEntries: func(dst []byte, entries []Entry[float64]) []byte {
			n := len(dst)
			dst = slices.Grow(dst, 16*len(entries))[:n+16*len(entries)]
			b := dst[n:]
			for _, it := range entries {
				binary.LittleEndian.PutUint64(b, math.Float64bits(it.Key))
				binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(it.Weight))
				b = b[16:]
			}
			return dst
		},
	}
}

// maxFrame bounds a single record's payload; a length prefix beyond it is
// treated as corruption rather than an allocation request.
const maxFrame = 1 << 27 // 128 MiB

// frameHeader is the fixed frame prefix: payload length + payload CRC.
const frameHeader = 8

var (
	// ErrCorrupt reports a WAL frame or snapshot that fails its structural
	// checks (bad length, CRC mismatch, undecodable payload).
	ErrCorrupt  = errors.New("persist: corrupt data")
	errShortKey = fmt.Errorf("%w: truncated key", ErrCorrupt)
)

// appendRecord encodes rec as one CRC-framed record appended to dst.
func appendRecord[K cmp.Ordered](dst []byte, codec KeyCodec[K], rec Record[K]) ([]byte, error) {
	if !rec.Op.valid() {
		return dst, fmt.Errorf("persist: cannot encode %v record", rec.Op)
	}
	// Reserve the header, build the payload in place, then patch the header.
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, byte(rec.Op))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Entries)))
	for _, e := range rec.Entries {
		dst = codec.Append(dst, e.Key)
		if rec.Op != OpDelete {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Weight))
		}
	}
	payload := dst[start+frameHeader:]
	if len(payload) > maxFrame {
		return dst[:start], fmt.Errorf("persist: record payload %d bytes exceeds frame limit", len(payload))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// decodeRecord decodes one frame payload (the bytes after the header).
// It never panics on malformed input; every structural violation returns
// an error wrapping ErrCorrupt (FuzzWALDecode enforces this).
func decodeRecord[K cmp.Ordered](codec KeyCodec[K], payload []byte) (Record[K], error) {
	return decodeRecordInto(codec, payload, nil)
}

// decodeRecordInto is decodeRecord appending into entries — the recovery
// hot path's spelling, so replaying a long WAL tail reuses one entries
// backing across every record instead of allocating per record. The
// returned Record's Entries aliases (the possibly-grown) entries.
func decodeRecordInto[K cmp.Ordered](codec KeyCodec[K], payload []byte, entries []Entry[K]) (Record[K], error) {
	var rec Record[K]
	if len(payload) < 5 {
		return rec, fmt.Errorf("%w: payload too short", ErrCorrupt)
	}
	rec.Op = Op(payload[0])
	if !rec.Op.valid() {
		return rec, fmt.Errorf("%w: unknown op %d", ErrCorrupt, payload[0])
	}
	count := binary.LittleEndian.Uint32(payload[1:5])
	rest := payload[5:]
	// Every entry consumes at least one byte, so a count beyond the
	// remaining bytes is structurally impossible — reject before allocating.
	if int64(count) > int64(len(rest)) {
		return rec, fmt.Errorf("%w: entry count %d exceeds payload", ErrCorrupt, count)
	}
	if cap(entries) < int(count) {
		entries = make([]Entry[K], 0, count)
	}
	rec.Entries = entries
	for i := uint32(0); i < count; i++ {
		var e Entry[K]
		var err error
		e.Key, rest, err = codec.Read(rest)
		if err != nil {
			return rec, fmt.Errorf("%w: entry %d: %v", ErrCorrupt, i, err)
		}
		if rec.Op != OpDelete {
			if len(rest) < 8 {
				return rec, fmt.Errorf("%w: entry %d: truncated weight", ErrCorrupt, i)
			}
			e.Weight = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
		}
		rec.Entries = append(rec.Entries, e)
	}
	if len(rest) != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes after %d entries", ErrCorrupt, len(rest), count)
	}
	return rec, nil
}
