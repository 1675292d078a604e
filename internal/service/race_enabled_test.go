//go:build race

package service

// raceEnabled reports that this test binary runs under the race
// detector, whose instrumentation slows solves by an order of
// magnitude and voids wall-clock throughput assertions.
const raceEnabled = true
