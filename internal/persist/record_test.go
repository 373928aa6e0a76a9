package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

func mkEntries(keys []float64, weights []float64) []Entry[float64] {
	out := make([]Entry[float64], len(keys))
	for i, k := range keys {
		out[i].Key = k
		if weights != nil {
			out[i].Weight = weights[i]
		}
	}
	return out
}

// exportEntries spells a materialized snapshot as commit's arguments: the
// entry count and an Export that emits them as one block.
func exportEntries(es []Entry[float64]) (int, Export[float64]) {
	return len(es), func(emit func([]Entry[float64]) error) error { return emit(es) }
}

// frameRoundtrip encodes rec and decodes the payload back.
func frameRoundtrip(t *testing.T, rec Record[float64]) Record[float64] {
	t.Helper()
	frame, err := appendRecord(nil, Float64Keys(), rec)
	if err != nil {
		t.Fatalf("encode %v: %v", rec.Op, err)
	}
	length := binary.LittleEndian.Uint32(frame)
	if int(length) != len(frame)-frameHeader {
		t.Fatalf("length prefix %d, frame body %d", length, len(frame)-frameHeader)
	}
	payload := frame[frameHeader:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:]) {
		t.Fatal("CRC mismatch on fresh frame")
	}
	got, err := decodeRecord(Float64Keys(), payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestRecordRoundtrip(t *testing.T) {
	cases := []Record[float64]{
		{Op: OpInsert, Entries: mkEntries([]float64{1, 2.5, -3, math.Inf(1)}, []float64{1, 0.25, 7, 0})},
		{Op: OpInsert, Entries: nil},
		{Op: OpDelete, Entries: mkEntries([]float64{9, 9, 0}, nil)},
		{Op: OpUpdate, Entries: mkEntries([]float64{4}, []float64{123.5})},
	}
	for _, rec := range cases {
		got := frameRoundtrip(t, rec)
		if got.Op != rec.Op || len(got.Entries) != len(rec.Entries) {
			t.Fatalf("roundtrip %v: got %+v", rec.Op, got)
		}
		if len(rec.Entries) > 0 && !reflect.DeepEqual(got.Entries, rec.Entries) {
			t.Fatalf("roundtrip %v: entries %v != %v", rec.Op, got.Entries, rec.Entries)
		}
	}
}

func TestRecordRoundtripDeleteIgnoresWeights(t *testing.T) {
	// Delete records do not serialize weights; they come back zero.
	rec := Record[float64]{Op: OpDelete, Entries: mkEntries([]float64{1, 2}, []float64{5, 6})}
	got := frameRoundtrip(t, rec)
	for i, e := range got.Entries {
		if e.Weight != 0 {
			t.Fatalf("delete entry %d kept weight %v", i, e.Weight)
		}
	}
}

func TestDecodeRecordRejectsMalformed(t *testing.T) {
	codec := Float64Keys()
	good, err := appendRecord(nil, codec, Record[float64]{Op: OpInsert, Entries: mkEntries([]float64{1, 2}, []float64{3, 4})})
	if err != nil {
		t.Fatal(err)
	}
	payload := good[frameHeader:]

	bad := [][]byte{
		nil,
		{},
		{byte(OpInsert)},         // no count
		{0, 0, 0, 0, 0},          // op 0
		{99, 1, 0, 0, 0},         // unknown op
		payload[:len(payload)-1], // truncated last weight
		payload[:len(payload)-9], // truncated mid-entry
		append(append([]byte{}, payload...), 0xAB), // trailing byte
	}
	// Entry count far beyond the payload.
	huge := append([]byte{byte(OpInsert)}, 0xff, 0xff, 0xff, 0x7f)
	bad = append(bad, huge)
	for i, p := range bad {
		if _, err := decodeRecord(codec, p); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("case %d: want ErrCorrupt, got %v", i, err)
		}
	}
}

func TestEncodeRejectsInvalidOp(t *testing.T) {
	if _, err := appendRecord(nil, Float64Keys(), Record[float64]{Op: Op(7)}); err == nil {
		t.Fatal("encoded a record with an invalid op")
	}
}
