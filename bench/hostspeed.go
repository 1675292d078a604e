package main

import "time"

// The host-speed reference. The benchmark box is a couple of vCPUs of a
// shared host whose effective core speed moves between 1x and ~1.8x
// slower and stays there for tens of seconds to many minutes (turbo
// headroom and sibling threads taken by other tenants): a fixed
// arithmetic kernel, an LP solve and a loopback round trip all slow
// down together, and user+sys CPU time inflates with them. Taking each
// op's fastest replay removes bursts; it cannot remove a stretch that
// outlasts the run. So the timed loop also times this frozen kernel
// every probeInterval, and every reported time is divided by the
// kernel's slowdown around it: times are stated at the speed at which
// the kernel takes probeNominal.
//
// The kernel is part of the benchmark, not of the program, so no change
// to the program can move it; it allocates nothing and touches 128 KiB.

const (
	// probeNominal is the kernel's fastest time on the reference box.
	// It only fixes the scale of the reported times.
	probeNominal = 110 * time.Microsecond
	// probeInterval is how often the timed loop reads the host speed.
	// The probe costs ~0.35 ms, so this is under 2 % of the wall time,
	// and none of it is inside a timed request.
	probeInterval = 20 * time.Millisecond
)

var (
	probeData = func() []float64 {
		a := make([]float64, 16*1024)
		for i := range a {
			a[i] = float64(i)
		}
		return a
	}()
	probeSink float64 // keeps the kernel's result live
)

// probeKernel is 64 Ki dependent multiply-adds with a store and a
// branch each, over an array that fits L2 but not L1.
func probeKernel() time.Duration {
	start := time.Now()
	s := 0.0
	for pass := 0; pass < 4; pass++ {
		for i, v := range probeData {
			s += v * 1.0000001
			probeData[i] = s * 0.5
			if s > 1e6 {
				s = 1
			}
		}
	}
	probeSink = s
	return time.Since(start)
}

// hostFactor is how many times slower than nominal the host runs right
// now: the fastest of three kernel runs (a preemption inside one only
// ever lengthens it) over probeNominal.
func hostFactor() float64 {
	best := probeKernel()
	for i := 0; i < 2; i++ {
		best = min(best, probeKernel())
	}
	return float64(best) / float64(probeNominal)
}
