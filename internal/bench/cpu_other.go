//go:build !unix

package bench

// cpuSeconds is 0 where there is no getrusage: the CPU-normalised cells of
// Fig 7 and Fig C then read 0.
func cpuSeconds() float64 { return 0 }
