//go:build !race

package wasp

const raceEnabled = false
