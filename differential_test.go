// Differential determinism: the predecoded block-execution engine must
// produce bit-identical virtual-cycle results to the legacy per-step
// interpreter — same Result.Cycles, Retired, marks, boot events, and exit
// state — across the asm corpus, the vcc fib image, the JS isolate, and
// the AES workload, over repeated runs (cold boot, pooled shells,
// snapshot restores, COW resets).
package virtines_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/aes"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/httpd"
	"repro/internal/hypercall"
	"repro/internal/js"
	"repro/internal/vcc"
	"repro/internal/wasp"
)

// resultKey is the comparable projection of a wasp.Result.
type resultKey struct {
	Cycles     uint64
	ExitCode   uint64
	Ret        string
	DataOut    string
	NetOut     string
	Stdout     string
	Marks      []hypercall.Mark
	Entries    uint64
	IOExits    uint64
	Retired    uint64
	BootEvents [8]uint64
	GuestEntry uint64
	SnapUsed   bool
	COWPages   int
}

func keyOf(r *wasp.Result) resultKey {
	k := resultKey{
		Cycles: r.Cycles, ExitCode: r.ExitCode,
		Ret: string(r.Ret), DataOut: string(r.DataOut),
		NetOut: string(r.NetOut), Stdout: string(r.Stdout),
		Marks:   append([]hypercall.Mark(nil), r.Marks...),
		Entries: r.Entries, IOExits: r.IOExits, Retired: r.Retired,
		GuestEntry: r.GuestEntry, SnapUsed: r.SnapshotUsed, COWPages: r.COWPages,
	}
	copy(k.BootEvents[:], r.BootEvents[:])
	return k
}

// vecOf renders what the frozen oracle pins of one run: virtual cycles,
// instructions retired and the guest's milestone marks.
func vecOf(r *wasp.Result) string {
	v := fmt.Sprintf("%d/%d", r.Cycles, r.Retired)
	for _, m := range r.Marks {
		v += fmt.Sprintf("/%d@%d", m.ID, m.Cycle)
	}
	return v
}

// pin compares one vector (a differential's per-run vectors, a figure's
// row) against its constant in want: frozen or figures. For the
// differentials, the two engines agreeing with each other is not
// enough: a drift in the cycle model that moves Step and the traces
// together must fail too.
func pin(t *testing.T, want map[string]string, name string, got []string) {
	t.Helper()
	if g := strings.Join(got, " "); g != want[name] {
		t.Errorf("%s drifted from its pin:\n got  %q: %q,\n want %q", name, name, g, want[name])
	}
}

// diffRun drives the same image+config sequence through a cached and a
// legacy Wasp and demands identical results run by run, and the frozen
// vectors of both.
func diffRun(t *testing.T, name string, opts []wasp.Option, img *guest.Image,
	mkCfg func(i int) wasp.RunConfig, runs int) {
	t.Helper()
	fast := wasp.New(opts...)
	slow := wasp.New(append(append([]wasp.Option(nil), opts...), wasp.WithLegacyInterp(true))...)
	var vecs []string
	for i := 0; i < runs; i++ {
		fclk, sclk := cycles.NewClock(), cycles.NewClock()
		fres, ferr := fast.Run(img, mkCfg(i), fclk)
		sres, serr := slow.Run(img, mkCfg(i), sclk)
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("%s run %d: error divergence: cached=%v legacy=%v", name, i, ferr, serr)
		}
		if ferr != nil {
			if ferr.Error() != serr.Error() {
				t.Fatalf("%s run %d: fault divergence:\n cached: %v\n legacy: %v", name, i, ferr, serr)
			}
			continue
		}
		if fclk.Now() != sclk.Now() {
			t.Fatalf("%s run %d: clock divergence: cached %d, legacy %d",
				name, i, fclk.Now(), sclk.Now())
		}
		fk, sk := keyOf(fres), keyOf(sres)
		if !reflect.DeepEqual(fk, sk) {
			t.Fatalf("%s run %d: result divergence:\n cached: %+v\n legacy: %+v", name, i, fk, sk)
		}
		vecs = append(vecs, vecOf(fres))
	}
	pin(t, frozen, name, vecs)
}

// corpusProgram generates one random-but-halting program in the style of
// the asm round-trip corpus: straight-line ALU work, guarded divides,
// balanced stack traffic, memory ops confined to the heap scratch page,
// and one bounded counting loop.
func corpusProgram(rng *rand.Rand) string {
	regs := []string{"rax", "rbx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11"}
	reg := func() string { return regs[rng.Intn(len(regs))] }
	body := "\tmovi rbp, 0x5000\n"
	for _, r := range regs {
		body += fmt.Sprintf("\tmovi %s, %d\n", r, rng.Intn(1<<12))
	}
	n := 10 + rng.Intn(25)
	for i := 0; i < n; i++ {
		switch rng.Intn(14) {
		case 0:
			body += fmt.Sprintf("\tadd %s, %s\n", reg(), reg())
		case 1:
			body += fmt.Sprintf("\tsub %s, %d\n", reg(), rng.Intn(1<<10))
		case 2:
			body += fmt.Sprintf("\tmul %s, %s\n", reg(), reg())
		case 3:
			r := reg()
			body += fmt.Sprintf("\tmovi %s, %d\n\tdiv %s, %s\n", r, 1+rng.Intn(9), reg(), r)
		case 4:
			body += fmt.Sprintf("\tand %s, %d\n", reg(), rng.Intn(1<<12))
		case 5:
			body += fmt.Sprintf("\txor %s, %s\n", reg(), reg())
		case 6:
			body += fmt.Sprintf("\tshl %s, %d\n", reg(), rng.Intn(8))
		case 7:
			body += fmt.Sprintf("\tshrv %s, %s\n", reg(), reg())
		case 8:
			r := reg()
			body += fmt.Sprintf("\tpush %s\n\tinc %s\n\tpop %s\n", r, r, r)
		case 9:
			body += fmt.Sprintf("\tstore [rbp+%d], %s\n", 8*rng.Intn(64), reg())
		case 10:
			body += fmt.Sprintf("\tload %s, [rbp+%d]\n", reg(), 8*rng.Intn(64))
		case 11:
			body += fmt.Sprintf("\tstoreb [rbp+%d], %s\n", rng.Intn(512), reg())
		case 12:
			body += fmt.Sprintf("\tcmp %s, %s\n", reg(), reg())
		case 13:
			body += fmt.Sprintf("\tneg %s\n", reg())
		}
	}
	// One bounded loop so the corpus exercises back-edges and flags.
	body += fmt.Sprintf(`	movi rcx, %d
vx_corpus_loop:
	add rax, rcx
	dec rcx
	jnz vx_corpus_loop
	hlt
`, 3+rng.Intn(60))
	return body
}

func TestDifferentialAsmCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		body := corpusProgram(rng)
		images := map[string]*guest.Image{
			"real16": guest.MustFromAsm(fmt.Sprintf("corpus16-%d", trial),
				".bits 16\n.org 0x8000\n_start:\n"+body),
			"prot32": guest.MustFromAsm(fmt.Sprintf("corpus32-%d", trial),
				guest.WrapProtected(body)),
			"long64": guest.MustFromAsm(fmt.Sprintf("corpus64-%d", trial),
				guest.WrapLongMode(body)),
		}
		for mode, img := range images {
			diffRun(t, fmt.Sprintf("corpus-%s-%d", mode, trial), nil, img,
				func(int) wasp.RunConfig { return wasp.RunConfig{} }, 3)
		}
	}
}

func TestDifferentialFib(t *testing.T) {
	v, err := vcc.CompileFunc(`
virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }`, "fib")
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []bool{false, true} {
		for _, cow := range []bool{false, true} {
			if cow && !snap {
				continue
			}
			opts := []wasp.Option{wasp.WithSnapshotting(snap), wasp.WithCOW(cow)}
			name := fmt.Sprintf("fib-snap=%v-cow=%v", snap, cow)
			diffRun(t, name, opts, v.Image, func(i int) wasp.RunConfig {
				return wasp.RunConfig{
					Policy: v.Policy, Args: vcc.MarshalArgs(int64(8 + i)),
					RetBytes: vcc.RetSize, Snapshot: snap,
				}
			}, 4)
		}
	}
}

func TestDifferentialEchoMarks(t *testing.T) {
	img := httpd.EchoImage()
	pol := httpd.EchoPolicy()
	diffRun(t, "echo", nil, img, func(int) wasp.RunConfig {
		env := hypercall.NewEnv()
		env.NetIn = []byte("GET / HTTP/1.0\r\n\r\n")
		return wasp.RunConfig{Policy: pol, Env: env}
	}, 3)
}

func TestDifferentialJS(t *testing.T) {
	data := make([]byte, 96)
	for i := range data {
		data[i] = byte(i * 13)
	}
	for _, variant := range js.Fig14Variants {
		fastW := wasp.New()
		slowW := wasp.New(wasp.WithLegacyInterp(true))
		fv := js.NewVirtineJS(fastW, variant.Snapshot, variant.NoTeardown)
		sv := js.NewVirtineJS(slowW, variant.Snapshot, variant.NoTeardown)
		var vecs []string
		for i := 0; i < 3; i++ {
			fclk, sclk := cycles.NewClock(), cycles.NewClock()
			fout, ferr := fv.Encode(data, fclk)
			sout, serr := sv.Encode(data, sclk)
			if ferr != nil || serr != nil {
				t.Fatalf("js %s run %d: cached err=%v legacy err=%v", variant.Name, i, ferr, serr)
			}
			if fout != sout {
				t.Fatalf("js %s run %d: output divergence", variant.Name, i)
			}
			if fclk.Now() != sclk.Now() {
				t.Fatalf("js %s run %d: clock divergence: cached %d, legacy %d",
					variant.Name, i, fclk.Now(), sclk.Now())
			}
			vecs = append(vecs, fmt.Sprint(fclk.Now()))
		}
		pin(t, frozen, "js-"+variant.Name, vecs)
	}
}

func TestDifferentialAES(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("fedcba9876543210")
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i * 7)
	}
	fastW := wasp.New()
	slowW := wasp.New(wasp.WithLegacyInterp(true))
	fc, err := aes.NewVirtineCipher(fastW, key, iv)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := aes.NewVirtineCipher(slowW, key, iv)
	if err != nil {
		t.Fatal(err)
	}
	var vecs []string
	for i := 0; i < 3; i++ {
		fclk, sclk := cycles.NewClock(), cycles.NewClock()
		fout, ferr := fc.Encrypt(src, fclk)
		sout, serr := sc.Encrypt(src, sclk)
		if ferr != nil || serr != nil {
			t.Fatalf("aes run %d: cached err=%v legacy err=%v", i, ferr, serr)
		}
		if string(fout) != string(sout) {
			t.Fatalf("aes run %d: ciphertext divergence", i)
		}
		if fclk.Now() != sclk.Now() {
			t.Fatalf("aes run %d: clock divergence: cached %d, legacy %d", i, fclk.Now(), sclk.Now())
		}
		vecs = append(vecs, fmt.Sprint(fclk.Now()))
	}
	pin(t, frozen, "aes", vecs)
}

func TestDifferentialBootStub(t *testing.T) {
	diffRun(t, "minimal-halt", nil, guest.MinimalHalt(),
		func(int) wasp.RunConfig { return wasp.RunConfig{} }, 3)
	diffRun(t, "minimal-halt32", nil, guest.MinimalHaltProtected(),
		func(int) wasp.RunConfig { return wasp.RunConfig{} }, 3)
}

// COW self-modifying regression: a guest that snapshots, patches its own
// code, re-executes the patched instruction, and exits must — on the next
// run's COW reset — execute the restored original bytes, not a decode
// cached from the patched bytes. (The copy-back loop re-invalidates each
// restored page; write-time invalidation alone cannot cover decodes
// re-created after the dirtying store.)
func TestDifferentialCOWSelfModify(t *testing.T) {
	// The first call must observe the restored original bytes (40); the
	// guest then patches the callee to 2 and calls again, so a correct
	// run exits with 40 + 2 = 42. A stale decode surviving the COW
	// reset would execute the previous run's patched callee on the
	// FIRST call — before the guest re-patches — and exit with 2 + 2 = 4.
	// (The re-decode of the patched callee happens after the last store
	// to its page, so the stale entries persist to run end.)
	src := guest.WrapLongMode(`
	out 0x08, rax
	call vx_smc_far
	mov rsi, rbx
	movi rdi, vx_smc_far
	movi rax, 2
	store [rdi+2], rax
	call vx_smc_far
	add rsi, rbx
	mov rdi, rsi
	out 0x00, rdi
	hlt
vx_smc_far:
	movi rbx, 40
	ret
`)
	img := guest.MustFromAsm("cow-smc", src)
	opts := []wasp.Option{wasp.WithCOW(true)}
	fast := wasp.New(opts...)
	slow := wasp.New(append(append([]wasp.Option(nil), opts...), wasp.WithLegacyInterp(true))...)
	for i := 0; i < 4; i++ {
		fclk, sclk := cycles.NewClock(), cycles.NewClock()
		cfg := wasp.RunConfig{Snapshot: true}
		fres, ferr := fast.Run(img, cfg, fclk)
		sres, serr := slow.Run(img, cfg, sclk)
		if ferr != nil || serr != nil {
			t.Fatalf("run %d: cached err=%v legacy err=%v", i, ferr, serr)
		}
		if fres.ExitCode != 42 || sres.ExitCode != 42 {
			t.Fatalf("run %d: exit codes cached=%d legacy=%d, want 42 (stale decode after COW reset)",
				i, fres.ExitCode, sres.ExitCode)
		}
		if !reflect.DeepEqual(keyOf(fres), keyOf(sres)) {
			t.Fatalf("run %d: result divergence:\n cached: %+v\n legacy: %+v",
				i, keyOf(fres), keyOf(sres))
		}
		if fclk.Now() != sclk.Now() {
			t.Fatalf("run %d: clock divergence: cached %d, legacy %d", i, fclk.Now(), sclk.Now())
		}
	}
}
