package fleet

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSeeds expands a seed-list expression — comma-separated values and
// inclusive lo-hi ranges, e.g. "1,2,5-8" — into the explicit seed slice
// [1 2 5 6 7 8]. It is the one grammar for replication counts across the
// CLIs (nostop-fleet -seeds) and scenario specs ("seeds": "1-5").
func ParseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.ParseUint(lo, 10, 64)
			b, err2 := strconv.ParseUint(hi, 10, 64)
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("fleet: bad seed range %q", part)
			}
			if b-a > 1<<20 {
				return nil, fmt.Errorf("fleet: seed range %q is implausibly large", part)
			}
			// Count from b-a rather than compare v <= b: a range ending at
			// the largest uint64 would wrap v to 0 and never stop.
			for i := uint64(0); i <= b-a; i++ {
				out = append(out, a+i)
			}
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: bad seed %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: empty seed list %q", s)
	}
	return out, nil
}
