//go:build race

package mc_test

// raceEnabled reports a -race build, whose sync.Pool drops a random share of
// what it is given: allocation-count assertions skip under it.
const raceEnabled = true
