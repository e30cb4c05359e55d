//go:build race

package httpd

// raceEnabled reports a race-detector build. Instrumented code allocates
// more, so allocation gates hold only without it.
const raceEnabled = true
