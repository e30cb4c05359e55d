package js

import "testing"

// FuzzJSParse feeds arbitrary bytes to the lexer and parser, the half of
// the engine a guest's JavaScript source reaches first: each input must
// parse or return an error, and never panic. Evaluation is left out on
// purpose. The engine has no step budget, so a mutation as small as
// `i = i + 3` → `i = i - 3` in a seed's loop runs forever.
func FuzzJSParse(f *testing.F) {
	for _, src := range []string{
		Base64JS,
		`var o = {a: [1, 2, {b: "c"}], "d": function(x) { return x ? -x : ~x; }};`,
		`for (var i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } else break; }`,
		`while (true) { s += "x".charAt(0) + 0x1f; t = new F(1)[2].g++; }`,
		`a = b >>> 3 << 2 >> 1 & c | d ^ e && !f || typeof g === "number";`,
		`"unterminated`, `/* open comment`, `(((`, `{a:`, `function (`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		prog, ntoks, err := parse(string(src))
		if err != nil {
			if prog != nil || ntoks != 0 {
				t.Fatalf("parse error %v came with %d statements and %d tokens", err, len(prog), ntoks)
			}
			return
		}
		if ntoks < 1 {
			t.Fatalf("parsed with %d tokens; the lexer always ends with EOF", ntoks)
		}
	})
}
