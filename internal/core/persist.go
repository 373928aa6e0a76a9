package core

import (
	"bufio"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/irsgo/irs/internal/chunks"
)

// Persistence: samplers serialize to a small versioned envelope around a
// gob-encoded key slice. The sorted keys are the entire logical state of
// both structures (the dynamic structure's geometry is rebuilt
// deterministically at load time in O(n)), so the format is stable across
// internal refactors and the load path reuses the validated bulk-load
// constructors.

const (
	persistMagic       = "irs1"
	persistKindStatic  = uint8(1)
	persistKindDynamic = uint8(2)
)

// ErrBadSnapshot is returned when loading data that is not an irs snapshot
// or whose kind does not match the requested structure.
var ErrBadSnapshot = fmt.Errorf("irs: not a valid snapshot")

func writeSnapshot[K cmp.Ordered](w io.Writer, kind uint8, keys []K) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(kind); err != nil {
		return err
	}
	if err := gob.NewEncoder(bw).Encode(keys); err != nil {
		return fmt.Errorf("irs: encoding snapshot: %w", err)
	}
	return bw.Flush()
}

func readSnapshot[K cmp.Ordered](r io.Reader, wantKind uint8) ([]K, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(persistMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(head[:len(persistMagic)]) != persistMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if head[len(persistMagic)] != wantKind {
		return nil, fmt.Errorf("%w: snapshot holds a different structure kind", ErrBadSnapshot)
	}
	var keys []K
	if err := gob.NewDecoder(br).Decode(&keys); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return keys, nil
}

// Save serializes the structure. The key type must be gob-encodable
// (all cmp.Ordered types are).
func (s *Static[K]) Save(w io.Writer) error {
	return writeSnapshot(w, persistKindStatic, s.keys)
}

// LoadStatic reads a Static snapshot written by Static.Save.
func LoadStatic[K cmp.Ordered](r io.Reader) (*Static[K], error) {
	keys, err := readSnapshot[K](r, persistKindStatic)
	if err != nil {
		return nil, err
	}
	// Snapshots are written sorted; verify rather than trust the stream.
	if !chunks.IsSorted(keys) {
		return nil, fmt.Errorf("%w: keys not sorted", ErrBadSnapshot)
	}
	return &Static[K]{keys: keys}, nil
}

// Save serializes the structure’s logical content (its sorted keys).
func (d *Dynamic[K]) Save(w io.Writer) error {
	keys := d.list.AppendKeys(make([]K, 0, d.Len()))
	return writeSnapshot(w, persistKindDynamic, keys)
}

// LoadDynamic reads a Dynamic snapshot written by Dynamic.Save and
// rebuilds the structure in O(n).
func LoadDynamic[K cmp.Ordered](r io.Reader) (*Dynamic[K], error) {
	keys, err := readSnapshot[K](r, persistKindDynamic)
	if err != nil {
		return nil, err
	}
	d, err2 := NewDynamicFromSorted(keys)
	if err2 != nil {
		return nil, fmt.Errorf("%w: keys not sorted", ErrBadSnapshot)
	}
	return d, nil
}
