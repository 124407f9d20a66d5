//go:build !unix

package main

// cpuSeconds has no portable source off unix; cpu_ms_per_cycle reads 0
// there and the benchmark's reference platform is linux.
func cpuSeconds() float64 { return 0 }
