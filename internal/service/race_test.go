//go:build race

package service

// The race detector makes sync.Pool drop a random quarter of what is put
// back, so allocation counts through the pooled reply buffers vary.
func init() { raceEnabled = true }
