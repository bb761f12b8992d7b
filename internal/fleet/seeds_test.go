package fleet

import (
	"slices"
	"testing"
)

func TestParseSeeds(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []uint64
	}{
		{"1,2,5-8", []uint64{1, 2, 5, 6, 7, 8}},
		{" 3 , 3-3 ", []uint64{3, 3}},
		// Ranges that end at the largest uint64 must stop there instead of
		// wrapping to 0.
		{"18446744073709551615-18446744073709551615", []uint64{18446744073709551615}},
		{"18446744073709551614-18446744073709551615", []uint64{18446744073709551614, 18446744073709551615}},
	} {
		got, err := ParseSeeds(c.in)
		if err != nil {
			t.Fatalf("ParseSeeds(%q): %v", c.in, err)
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("ParseSeeds(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", ",", "x", "5-1", "1-x", "0-1048577"} {
		if got, err := ParseSeeds(bad); err == nil {
			t.Fatalf("ParseSeeds(%q) = %v, want an error", bad, got)
		}
	}
}
