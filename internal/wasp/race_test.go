//go:build race

package wasp

// raceEnabled reports a race-detector build. Instrumented code allocates
// differently from run to run, so allocation gates hold only without it.
const raceEnabled = true
