package main

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"
)

// machineStamp names the machine and build a result was measured on. The
// commit comes from run.sh, which reads it when the checkout is a git
// repository.
func machineStamp() string {
	return fmt.Sprintf("numcpu=%d gomaxprocs=%d go=%s gogc=%s gomemlimit=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		envOr("GOGC", "default"), envOr("GOMEMLIMIT", "default"), envOr("PERFBENCH_COMMIT", "unknown"))
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// rtSample holds the Go runtime's cumulative counters, read from
// runtime/metrics.
type rtSample struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64 // seconds
	userCPU      float64
	scavengeCPU  float64
	processCPU   float64 // user + system seconds from getrusage
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSample{
		processCPU:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		userCPU:      s[4].Value.Float64(),
		scavengeCPU:  s[5].Value.Float64(),
	}
}

// sub returns the counters accumulated between b and a.
func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		userCPU:      a.userCPU - b.userCPU,
		scavengeCPU:  a.scavengeCPU - b.scavengeCPU,
		processCPU:   a.processCPU - b.processCPU,
	}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{
		allocBytes:   a.allocBytes + b.allocBytes,
		allocObjects: a.allocObjects + b.allocObjects,
		gcCycles:     a.gcCycles + b.gcCycles,
		gcCPU:        a.gcCPU + b.gcCPU,
		userCPU:      a.userCPU + b.userCPU,
		scavengeCPU:  a.scavengeCPU + b.scavengeCPU,
		processCPU:   a.processCPU + b.processCPU,
	}
}

// gcShare is the share of the process's busy CPU time spent in the
// garbage collector.
func (a rtSample) gcShare() float64 {
	busy := a.gcCPU + a.userCPU + a.scavengeCPU
	if busy <= 0 {
		return 0
	}
	return a.gcCPU / busy
}
