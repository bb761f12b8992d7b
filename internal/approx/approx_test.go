package approx

import (
	"math"
	"testing"
)

func TestEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},             // below absolute tolerance
		{1e12, 1e12 * (1 + 1e-12), true}, // below relative tolerance
		{0.1, 0.2, false},
		{1, 1 + 1e-6, false},
		{-1, 1, false},
		{0, 1e-12, true},
		{0, 1e-6, false},
		{math.Inf(1), math.Inf(1), false}, // Inf-Inf is NaN: never approximately equal
		{math.NaN(), math.NaN(), false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUnset(t *testing.T) {
	for _, c := range []struct {
		a    float64
		want bool
	}{
		{0, true},
		{math.Copysign(0, -1), true}, // -0 == 0 in IEEE 754
		{1e-9, false},                // deliberately-tiny configured value is NOT unset
		{1e-12, false},               // unlike Zero, no tolerance at all
		{1, false},
		{math.NaN(), false},
	} {
		if got := Unset(c.a); got != c.want {
			t.Errorf("Unset(%v) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestEqTol(t *testing.T) {
	if !EqTol(10, 11, 0.2) {
		t.Error("EqTol(10, 11, 0.2) should hold relatively")
	}
	if EqTol(10, 11, 0.01) {
		t.Error("EqTol(10, 11, 0.01) should fail")
	}
}
