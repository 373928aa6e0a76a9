package xrandtest

import (
	"math"
	"math/big"
	"testing"
)

// TestYielding pins the state layout Yielding writes: the generator it
// returns produces the chosen outputs, one or two, for edge and mixed
// values.
func TestYielding(t *testing.T) {
	vals := []uint64{0, 1, 1 << 63, ^uint64(0), 0x0123456789abcdef, 0xfedcba9876543210}
	for _, a := range vals {
		if got := Yielding(a).Uint64(); got != a {
			t.Fatalf("Yielding(%#x) produced %#x", a, got)
		}
		for _, b := range vals {
			r := Yielding(a, b)
			if x, y := r.Uint64(), r.Uint64(); x != a || y != b {
				t.Fatalf("Yielding(%#x, %#x) produced %#x, %#x", a, b, x, y)
			}
		}
	}
}

// TestUnitAndSteps: Unit(m) makes Float64 return m·2⁻⁵³ exactly, and Steps
// finds a threshold decision's one change of answer at ⌈p·2⁵³⌉.
func TestUnitAndSteps(t *testing.T) {
	for _, m := range []uint64{0, 1, Grid / 3, Grid - 1} {
		if got := Yielding(Unit(m)).Float64(); got != float64(m)/Grid {
			t.Fatalf("Unit(%d) gives Float64 %v", m, got)
		}
	}
	for _, p := range []float64{0, 5e-324, 0x1p-53, 0.3, 0.5, 1 - 0x1p-53, 1} {
		steps := Steps(func(m uint64) int {
			if Yielding(Unit(m)).Float64() < p {
				return 1
			}
			return 0
		})
		below := uint64(0)
		for _, s := range steps {
			if s.Value == 1 {
				below += s.To - s.From
			}
		}
		want, _ := new(big.Rat).Mul(Exact(p), new(big.Rat).SetInt64(Grid)).Float64()
		if float64(below) != math.Ceil(want) {
			t.Fatalf("p = %v: %d grid points below, want %v", p, below, math.Ceil(want))
		}
	}
}
