//go:build race

package main

// raceOn stretches the timed tests: the race detector slows the serving
// path about tenfold, and p90 needs 100 jobs.
const raceOn = true
