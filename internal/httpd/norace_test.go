//go:build !race

package httpd

const raceEnabled = false
