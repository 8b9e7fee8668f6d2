//go:build race

package service

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own: allocation-size assertions skip under it.
const raceEnabled = true
