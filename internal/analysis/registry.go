package analysis

// All returns every contract analyzer, in report order: the five
// determinism passes plus the hot-path allocation, lock-discipline,
// observer-contract and dead-API passes.
func All() []*Analyzer {
	return []*Analyzer{DeadAPI, FloatEq, HotAlloc, LockGuard, MapOrder, ObsContract, RandSource, SimGoroutine, WallClock}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
