package deadapifixture

import "testing"

func TestFixture(t *testing.T) {
	if OnlyTested() != 1 || (TestOnly{n: 1}).Get() != 1 || (Impl{}).Extra() != 3 {
		t.Fatal("fixture")
	}
}
