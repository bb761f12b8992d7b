// Package deadapifixture exercises the deadapi analyzer.
package deadapifixture

import (
	"encoding/json"
	"fmt"
)

// Used has a non-test caller below.
func Used() string {
	b, _ := json.Marshal(Impl{})
	return fmt.Sprint(Impl{}) + string(b) + run(Impl{})
}

// Caller keeps Used alive, and Caller itself is what an importer would call.
var Caller = Used

func OnlyTested() int { return 1 } // want "func OnlyTested is not referenced by any non-test file"

type TestOnly struct{ n int } // want "type TestOnly is not referenced by any non-test file"

// Get is a method of a dead type: reported with its type, not separately.
func (t TestOnly) Get() int { return t.n }

func (t *TestOnly) Self() *TestOnly { return &TestOnly{n: t.n} }

// Doer is the fixture's own interface.
type Doer interface{ Do() int }

func run(d Doer) string { return fmt.Sprint(d.Do()) }

// Impl is live; its methods below implement Doer, fmt.Stringer and
// json.Marshaler, so interface dispatch reaches them without a reference.
type Impl struct{}

func (Impl) Do() int { return 2 }

func (Impl) String() string { return "impl" }

func (Impl) MarshalJSON() ([]byte, error) { return []byte(`"impl"`), nil }

func (Impl) Extra() int { return 3 } // want "method Impl.Extra is not referenced by any non-test file and implements no interface"

func recurse(n int) int { // want "func recurse is not referenced by any non-test file"
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

func helper() {} // want "func helper is not referenced by any non-test file"

//nostop:allow deadapi -- fixture: a sanctioned keep
func Kept() {}
