package vcc

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
)

// Image pins: every vcc program of this package's program, differential
// and optimizer tests, plus a copy of the guest_compute benchmark's
// kernel, compiled with the optimizer on and off. Each virtine is pinned
// by its image name, which embeds the CRC-32 of its code, and by the
// CRC-32 of its Asm listing; the listing must also reassemble, through
// the text front end, to exactly the image's code, origin and entry.
// httpd pins its own handlers the same way (TestHandlerImagePins).

// fibKernelC is a copy of benchmark/guest_compute.go's fibC.
const fibKernelC = `
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
virtine int work(int n, int m) {
	int s = 0;
	for (int i = 0; i < m; i++) { s = s + i; }
	return fib(n) + s;
}
`

// pinnedSources are the fixed programs, copied from the tests named.
var pinnedSources = []struct{ name, src string }{
	{"ProgramGCD", `
int gcd(int a, int b) {
	while (b != 0) {
		int t = b;
		b = a % b;
		a = t;
	}
	return a;
}
virtine int run(int a, int b) { return gcd(a, b); }`},
	{"ProgramBubbleSort", `
virtine int sortsum(int seed) {
	int a[16];
	/* fill with a scrambled sequence */
	for (int i = 0; i < 16; i++) {
		a[i] = (seed * (i + 7)) % 100;
	}
	/* bubble sort */
	for (int i = 0; i < 15; i++) {
		for (int j = 0; j < 15 - i; j++) {
			if (a[j] > a[j + 1]) {
				int t = a[j];
				a[j] = a[j + 1];
				a[j + 1] = t;
			}
		}
	}
	/* verify sorted and checksum */
	int sum = 0;
	for (int i = 0; i < 16; i++) {
		if (i > 0 && a[i] < a[i - 1]) return -1;
		sum += a[i] * (i + 1);
	}
	return sum;
}`},
	{"ProgramPrimeSieve", `
virtine int countprimes(int n) {
	char sieve[256];
	memset(sieve, 1, 256);
	sieve[0] = 0;
	sieve[1] = 0;
	for (int i = 2; i * i < n; i++) {
		if (sieve[i]) {
			for (int j = i * i; j < n; j += i) { sieve[j] = 0; }
		}
	}
	int count = 0;
	for (int i = 0; i < n; i++) { count += sieve[i]; }
	return count;
}`},
	{"ProgramStringReverseWithHeap", `
char *reverse(char *s) {
	int n = strlen(s);
	char *out = malloc(n + 1);
	for (int i = 0; i < n; i++) { out[i] = s[n - 1 - i]; }
	out[n] = 0;
	return out;
}
virtine int palindrome(int unused) {
	char *a = "step on no pets";
	char *b = reverse(a);
	if (strcmp(a, b) != 0) return 0;
	char *c = reverse("virtine");
	if (strcmp(c, "enitriv") != 0) return -1;
	return 1;
}`},
	{"ProgramItoaAtoiRoundTrip", `
virtine int roundtrip(int v) {
	char buf[32];
	itoa(v, buf);
	return atoi(buf);
}`},
	{"ProgramCollatz", `
virtine int collatz(int n) {
	int steps = 0;
	while (n != 1) {
		if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
		steps++;
	}
	return steps;
}`},
	{"ProgramMatrixMultiply", `
virtine int matmul(int n) {
	int a[16];
	int b[16];
	int c[16];
	for (int i = 0; i < 16; i++) { a[i] = i + 1; b[i] = 16 - i; c[i] = 0; }
	for (int i = 0; i < 4; i++) {
		for (int j = 0; j < 4; j++) {
			for (int k = 0; k < 4; k++) {
				c[i * 4 + j] += a[i * 4 + k] * b[k * 4 + j];
			}
		}
	}
	int tr = 0;
	for (int i = 0; i < 4; i++) { tr += c[i * 4 + i]; }
	return tr;
}`},
	{"NestedVirtineAnnotationIgnored", `
virtine int inner(int n) { return n + 1; }
virtine int outer(int n) { return inner(n) * 2; }`},
	{"DeepRecursionWithinStackBudget", `
int depth(int n) {
	if (n == 0) return 0;
	return 1 + depth(n - 1);
}
virtine int run(int n) { return depth(n); }`},
	{"CharArithmetic", `
virtine int caesar(int shift) {
	char buf[16];
	strcpy(buf, "attack");
	for (int i = 0; buf[i]; i++) {
		buf[i] = 'a' + (buf[i] - 'a' + shift) % 26;
	}
	/* checksum the shifted string */
	int h = 0;
	for (int i = 0; buf[i]; i++) { h = h * 31 + buf[i]; }
	return h;
}`},
	{"OptimizerProbe", optProbeSrc},
	{"OptimizerFib", `virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }`},
	{"OptimizerShifts", `virtine int f(int a, int b) { return (a << 3) | (b & 7); }`},
	{"OptimizerStrcpy", `virtine int f(int n) {
			char buf[32];
			strcpy(buf, "abc");
			return strlen(buf) + n;
		}`},
	{"ConstantFolding", `virtine int k(int n) { return 2 * 3 + (10 << 2) - 6 / 2; }`},
	{"SnapshotCollisionFirst", `virtine int f(int n) { return n + 1; }`},
	{"SnapshotCollisionSecond", `virtine int f(int n) { return n * 100; }`},
	{"GuestComputeFib", fibKernelC},
}

// differentialSources regenerates the sources of the three differential
// tests: the same generator, seeds and draws.
func differentialSources() map[string][]string {
	out := map[string][]string{}
	rng := rand.New(rand.NewSource(20260612))
	for trial := 0; trial < 25; trial++ {
		e, _ := (&exprGen{rng: rng, depth: 4}).gen(0)
		out["DifferentialExpressions"] = append(out["DifferentialExpressions"],
			fmt.Sprintf("virtine int f(int a, int b) { return %s; }", e))
	}
	rng = rand.New(rand.NewSource(777))
	for trial := 0; trial < 10; trial++ {
		e, _ := (&exprGen{rng: rng, depth: 3}).gen(0)
		out["DifferentialStatements"] = append(out["DifferentialStatements"], fmt.Sprintf(`
virtine int f(int a, int b) {
	int acc = 0;
	for (int i = 0; i < 8; i++) {
		acc += %s;
		a = a + 1;
		b = b - 1;
	}
	return acc;
}`, e))
	}
	rng = rand.New(rand.NewSource(31337))
	for trial := 0; trial < 8; trial++ {
		e, _ := (&exprGen{rng: rng, depth: 3}).gen(0)
		out["DifferentialRandomInputs"] = append(out["DifferentialRandomInputs"],
			fmt.Sprintf("virtine int f(int a, int b) { return %s; }", e))
		for k := 0; k < 12; k++ {
			rng.Intn(1 << 16) // the test's argument draws
		}
	}
	return out
}

// imagePin compiles src and returns one "name image asm-crc" line per
// virtine, in name order, after checking that each listing reassembles
// to its image.
func imagePin(t testing.TB, src string, optimize bool) string {
	t.Helper()
	prog, err := CompileWithOptions(src, Options{Optimize: optimize})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(prog.Virtines))
	for name := range prog.Virtines {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		v := prog.Virtines[name]
		p, err := asm.Assemble(v.Asm)
		if err != nil {
			t.Fatalf("%s: listing does not assemble: %v", name, err)
		}
		if !bytes.Equal(p.Code, v.Image.Code) || p.Origin != v.Image.Origin || p.Entry != v.Image.Entry {
			t.Fatalf("%s: listing reassembles to %d bytes at %#x (entry %#x), image is %d at %#x (entry %#x)",
				name, len(p.Code), p.Origin, p.Entry, len(v.Image.Code), v.Image.Origin, v.Image.Entry)
		}
		fmt.Fprintf(&b, "%s %08x;", v.Image.Name, crc32.ChecksumIEEE([]byte(v.Asm)))
	}
	return b.String()
}

func TestImagePins(t *testing.T) {
	pins := map[string]string{
		// Filled from the commit before vcc built typed statements: the
		// images and listings must not move.
		"CharArithmetic/opt=false":                 "virtine-caesar-c24d7857 e51ca6f4;",
		"CharArithmetic/opt=true":                  "virtine-caesar-8481ab88 32d60a73;",
		"ConstantFolding/opt=false":                "virtine-k-c5d1977f 9cd7ebef;",
		"ConstantFolding/opt=true":                 "virtine-k-c5d1977f 9cd7ebef;",
		"DeepRecursionWithinStackBudget/opt=false": "virtine-run-4ece63cc 7e90fbd4;",
		"DeepRecursionWithinStackBudget/opt=true":  "virtine-run-c4a1191a 2078909e;",
		"DifferentialExpressions/opt=false":        "25 programs, digest b53fba2a",
		"DifferentialExpressions/opt=true":         "25 programs, digest 52354da8",
		"DifferentialRandomInputs/opt=false":       "8 programs, digest f644e20b",
		"DifferentialRandomInputs/opt=true":        "8 programs, digest 1b9cf4cb",
		"DifferentialStatements/opt=false":         "10 programs, digest deab9f8a",
		"DifferentialStatements/opt=true":          "10 programs, digest dfaa8598",
		"GuestComputeFib/opt=false":                "virtine-work-0f411edf 1312a3de;",
		"GuestComputeFib/opt=true":                 "virtine-work-ab784fc0 dbc0e549;",
		"NestedVirtineAnnotationIgnored/opt=false": "virtine-inner-0ed07344 bc46fd85;virtine-outer-09756acb 299bf21c;",
		"NestedVirtineAnnotationIgnored/opt=true":  "virtine-inner-d5c7b9e7 bb1db4c9;virtine-outer-254c4b34 ea7cea89;",
		"OptimizerFib/opt=false":                   "virtine-fib-45ce4315 11b05752;",
		"OptimizerFib/opt=true":                    "virtine-fib-046924e3 c3203008;",
		"OptimizerProbe/opt=false":                 "virtine-probe-df2efe46 fcb8098c;",
		"OptimizerProbe/opt=true":                  "virtine-probe-6db6f217 3e9c9cf5;",
		"OptimizerShifts/opt=false":                "virtine-f-0c1f5ec8 47525b0b;",
		"OptimizerShifts/opt=true":                 "virtine-f-03729aeb d74b5ff8;",
		"OptimizerStrcpy/opt=false":                "virtine-f-7cf8348e 15d38c77;",
		"OptimizerStrcpy/opt=true":                 "virtine-f-b8b01b6a eda6b187;",
		"ProgramBubbleSort/opt=false":              "virtine-sortsum-78722d63 b03e7e43;",
		"ProgramBubbleSort/opt=true":               "virtine-sortsum-1567e497 0d9def39;",
		"ProgramCollatz/opt=false":                 "virtine-collatz-6709cbbd 48b45391;",
		"ProgramCollatz/opt=true":                  "virtine-collatz-264b43bf 9da46017;",
		"ProgramGCD/opt=false":                     "virtine-run-8fed3630 44991b76;",
		"ProgramGCD/opt=true":                      "virtine-run-3b748666 9b7711a7;",
		"ProgramItoaAtoiRoundTrip/opt=false":       "virtine-roundtrip-a957711a a123e2ce;",
		"ProgramItoaAtoiRoundTrip/opt=true":        "virtine-roundtrip-d1b5fb8a 557cac10;",
		"ProgramMatrixMultiply/opt=false":          "virtine-matmul-f9379b64 e2daeee6;",
		"ProgramMatrixMultiply/opt=true":           "virtine-matmul-199906bb ef183a74;",
		"ProgramPrimeSieve/opt=false":              "virtine-countprimes-86d8804c c211604d;",
		"ProgramPrimeSieve/opt=true":               "virtine-countprimes-87f75d37 2e85d196;",
		"ProgramStringReverseWithHeap/opt=false":   "virtine-palindrome-bce75153 08c7f81b;",
		"ProgramStringReverseWithHeap/opt=true":    "virtine-palindrome-3d01648f dd4895b9;",
		"SnapshotCollisionFirst/opt=false":         "virtine-f-0ed07344 15c28e11;",
		"SnapshotCollisionFirst/opt=true":          "virtine-f-d5c7b9e7 510ece67;",
		"SnapshotCollisionSecond/opt=false":        "virtine-f-642b1d99 5fbfc3ec;",
		"SnapshotCollisionSecond/opt=true":         "virtine-f-67b0db6a f06925e7;",
	}
	got := map[string]string{}
	for _, p := range pinnedSources {
		for _, opt := range []bool{true, false} {
			got[fmt.Sprintf("%s/opt=%v", p.name, opt)] = imagePin(t, p.src, opt)
		}
	}
	for set, srcs := range differentialSources() {
		for _, opt := range []bool{true, false} {
			h := crc32.NewIEEE()
			for _, src := range srcs {
				h.Write([]byte(imagePin(t, src, opt)))
			}
			got[fmt.Sprintf("%s/opt=%v", set, opt)] = fmt.Sprintf("%d programs, digest %08x", len(srcs), h.Sum32())
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := pins[k]; !ok || want != got[k] {
			t.Errorf("%q: %q,", k, got[k])
		}
	}
	if len(pins) != len(got) {
		t.Errorf("%d pins for %d programs", len(pins), len(got))
	}
}
