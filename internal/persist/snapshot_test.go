package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// snapshotImage encodes entries as a whole snapshot file image.
func snapshotImage(t testing.TB, kind uint8, seq uint64, entries []Entry[float64]) []byte {
	t.Helper()
	var b bytes.Buffer
	count, export := exportEntries(entries)
	if err := encodeSnapshot(&b, Float64Keys(), kind, seq, count, export); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestOpenStreamSnapshotBytes pins what recovery allocates to read a
// snapshot: the file is checksummed and then decoded through one fixed
// buffer, so OpenStream with a sink that keeps nothing allocates the same,
// within 64 KiB, at 2^16 and at 2^18 entries. Reading the whole file into
// memory first would add 3 MiB at the larger size.
func TestOpenStreamSnapshotBytes(t *testing.T) {
	openBytes := func(n int) uint64 {
		dir := t.TempDir()
		st, _ := openTestStore(t, dir, KindWeighted)
		entries := make([]Entry[float64], n)
		for i := range entries {
			entries[i] = Entry[float64]{Key: float64(i), Weight: float64(i % 3)}
		}
		_, commit, err := st.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := commit(exportEntries(entries)); err != nil {
			t.Fatal(err)
		}
		st.Close()
		entries = nil

		got := 0
		sink := RecoverySink[float64]{SnapshotEntry: func(Entry[float64]) error { got++; return nil }}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st2, stats, err := OpenStream(dir, Float64Keys(), Options{Kind: KindWeighted, Sync: SyncNone}, sink)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		st2.Close()
		if got != n || stats.SnapshotEntries != n {
			t.Fatalf("recovered %d entries (stats %d), want %d", got, stats.SnapshotEntries, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := openBytes(1<<16), openBytes(1<<18)
	t.Logf("OpenStream: %d B at 2^16 entries, %d B at 2^18", small, large)
	if large > small+64<<10 {
		t.Fatalf("OpenStream allocates %d B at 2^18 entries against %d B at 2^16, want the same within 64 KiB", large, small)
	}
}

// TestSnapshotDecodeLargeKeys drives the decoder's refill path with keys
// longer than its read buffer, through a length-prefixed string codec.
func TestSnapshotDecodeLargeKeys(t *testing.T) {
	codec := KeyCodec[string]{
		Append: func(dst []byte, key string) []byte {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
			return append(dst, key...)
		},
		Read: func(b []byte) (string, []byte, error) {
			if len(b) < 4 || uint64(len(b)-4) < uint64(binary.LittleEndian.Uint32(b)) {
				return "", nil, errShortKey
			}
			n := binary.LittleEndian.Uint32(b)
			return string(b[4 : 4+n]), b[4+n:], nil
		},
	}
	entries := []Entry[string]{
		{Key: "a", Weight: 1},
		{Key: string(bytes.Repeat([]byte{'b'}, 3*snapshotBuf)), Weight: 2},
		{Key: "c", Weight: 3},
		{Key: string(bytes.Repeat([]byte{'d'}, snapshotBuf-10)), Weight: 4},
		{Key: "e", Weight: 5},
	}
	var b bytes.Buffer
	export := func(emit func([]Entry[string]) error) error { return emit(entries) }
	if err := encodeSnapshot(&b, codec, KindWeighted, 9, len(entries), export); err != nil {
		t.Fatal(err)
	}
	var got []Entry[string]
	seq, n, err := decodeSnapshot(bytes.NewReader(b.Bytes()), int64(b.Len()), "big", codec, KindWeighted, nil,
		func(e Entry[string]) error { got = append(got, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 || n != len(entries) || len(got) != len(entries) {
		t.Fatalf("decoded seq %d, %d entries (%d delivered), want 9 and %d", seq, n, len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d differs (key length %d vs %d)", i, len(got[i].Key), len(entries[i].Key))
		}
	}
}

// TestSnapshotExportCountMismatch: an export that produces other than the
// announced count fails the encode rather than writing a snapshot whose
// header lies.
func TestSnapshotExportCountMismatch(t *testing.T) {
	entries := mkEntries([]float64{1, 2, 3}, nil)
	export := func(emit func([]Entry[float64]) error) error { return emit(entries) }
	for _, count := range []int{2, 4} {
		if err := encodeSnapshot(&bytes.Buffer{}, Float64Keys(), KindUnweighted, 1, count, export); err == nil {
			t.Errorf("export of 3 entries announced as %d encoded without error", count)
		}
	}
}

// FuzzSnapshotDecode drives the snapshot decoder with arbitrary file
// images. It must never panic; every error must wrap ErrCorrupt or be the
// kind mismatch; and a nil error means the CRC held, the entries delivered
// equal the header's count, and re-encoding them reproduces the image byte
// for byte.
func FuzzSnapshotDecode(f *testing.F) {
	unweighted := snapshotImage(f, KindUnweighted, 3, mkEntries([]float64{-1, 0.5, 0.5, 7}, []float64{1, 1, 1, 1}))
	weighted := snapshotImage(f, KindWeighted, 12, mkEntries([]float64{2, 4, 8}, []float64{0, 2.5, 1e9}))
	empty := snapshotImage(f, KindWeighted, 1, nil)
	for _, img := range [][]byte{unweighted, weighted, empty} {
		f.Add(img)
		for _, cut := range []int{0, 8, 20, len(img) / 2, len(img) - 5, len(img) - 1} {
			if cut >= 0 && cut <= len(img) {
				f.Add(img[:cut])
			}
		}
		flipped := bytes.Clone(img)
		flipped[len(flipped)-1] ^= 0x5a
		f.Add(flipped)
	}
	// A huge entry count with a CRC that still matches, so the count check
	// itself is what must reject it.
	huge := bytes.Clone(weighted)
	binary.LittleEndian.PutUint64(huge[len(snapshotMagic)+9:], 1<<62)
	binary.LittleEndian.PutUint32(huge[len(huge)-4:], crc32.ChecksumIEEE(huge[len(snapshotMagic):len(huge)-4]))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, img []byte) {
		for _, want := range []uint8{KindUnweighted, KindWeighted} {
			announced := -1
			var got []Entry[float64]
			seq, n, err := decodeSnapshot(bytes.NewReader(img), int64(len(img)), "fuzz", Float64Keys(), want,
				func(count int) error { announced = count; return nil },
				func(e Entry[float64]) error { got = append(got, e); return nil })
			if err != nil {
				var km *kindMismatchError
				if !errors.Is(err, ErrCorrupt) && !errors.As(err, &km) {
					t.Fatalf("decode error outside the ErrCorrupt and kind-mismatch vocabulary: %v", err)
				}
				if announced >= 0 && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("kind mismatch after the count was announced: %v", err)
				}
				continue
			}
			body := img[len(snapshotMagic) : len(img)-4]
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(img[len(img)-4:]) {
				t.Fatal("decoded an image whose CRC does not match")
			}
			if header := binary.LittleEndian.Uint64(body[9:]); uint64(n) != header || announced != n || len(got) != n {
				t.Fatalf("header count %d, returned %d, announced %d, delivered %d", header, n, announced, len(got))
			}
			if again := snapshotImage(t, want, seq, got); !bytes.Equal(again, img) {
				t.Fatal("re-encoding the decoded entries does not reproduce the image")
			}
		}
	})
}
