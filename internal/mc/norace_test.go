//go:build !race

package mc_test

const raceEnabled = false
