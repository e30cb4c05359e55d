// Command other is a second main package: its declarations are keyed by
// its directory, so its record.note, read here, does not hide the
// fixture's unread one, and its used kindNone does not make the
// fixture's allowlist entry stale. helper has no caller: a finding.
package main

type record struct{ note string }

const kindNone = 0

func helper() {}

func main() {
	r := record{note: "x"}
	println(r.note, kindNone)
}
