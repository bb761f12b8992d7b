// Package suppressmulti exercises one //nostop:allow comment naming several
// analyzers at once, plus an unsuppressed control finding per analyzer.
package suppressmulti

import (
	"math/rand" //nostop:allow randsource -- fixture: import under test below
	"time"
)

func doublySuppressed() (time.Time, int) {
	//nostop:allow wallclock, randsource -- fixture: one comment, two analyzers
	return time.Now(), rand.Intn(10)
}

func controls() (time.Time, int) {
	return time.Now(), rand.Intn(10) // CONTROL: must stay flagged by both analyzers
}

// Callers keeps both functions referenced, so the suite's dead-API pass has
// nothing to report here.
var Callers = []any{doublySuppressed, controls}
