// Package bench holds microbenchmarks for the sim kernel's hot paths:
// schedule+fire through the 4-ary heap, same-instant FIFO bursts,
// cancel/recycle, and ticker churn, alone and as 32 tickers on one lane
// over a deep heap, each driven by Step and by RunUntil (which fires a
// lone ticker in place). Run with
//
//	go test ./internal/sim/bench -bench . -benchmem
//
// The -benchmem allocation columns are leading indicators for perfbench's
// end-to-end throughput: any non-zero allocs/op on these paths will show up
// as wall-clock loss on every workload.
package bench
