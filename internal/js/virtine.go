package js

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/wasp"
)

// This file is the §6.5 experiment: the JavaScript engine embedded in a
// virtine via the Wasp runtime API (no language extensions), with exactly
// three hypercalls — snapshot(), get_data(), return_data() — and the
// Fig 14 optimization matrix:
//
//	native                  engine init + bindings + eval + teardown
//	virtine                 the same, inside a virtine (boot + image copy)
//	virtine+snapshot        engine init captured in the snapshot; restored
//	                        runs skip init and bindings (Fig 7)
//	virtine NT              "no teardown": the engine is never freed — the
//	                        VM reset discards it
//	virtine+snapshot+NT     both: restore + eval only; ≈ the paper's 137 µs
//	                        against a 419 µs native baseline

// DuktapeImagePad sizes the virtine image like the paper's Duktape build
// (≈578 KB, §7.2).
const DuktapeImagePad = 578 << 10

// engineReady is the opaque snapshot state marking that the engine heap
// (and bindings) live in the captured memory image.
type engineReady struct{}

// dataBuf is where the workload stages get_data/return_data payloads in
// guest memory.
const dataBuf = guest.HeapBase

// VirtineJS is the Duktape-in-a-virtine client.
type VirtineJS struct {
	W          *wasp.Wasp
	img        *guest.Image
	pol        hypercall.Policy
	NoTeardown bool
	Snapshot   bool
}

// NewVirtineJS builds the JS virtine with the given optimization flags.
// Distinct flag combinations get distinct image names (their snapshots
// differ).
func NewVirtineJS(w *wasp.Wasp, snapshot, noTeardown bool) *VirtineJS {
	v := &VirtineJS{
		W:          w,
		pol:        hypercall.MaskOf(hypercall.NrGetData, hypercall.NrReturnData),
		Snapshot:   snapshot,
		NoTeardown: noTeardown,
	}
	name := fmt.Sprintf("duktape-virtine-s%v-nt%v", snapshot, noTeardown)
	img := guest.NativeBootStub(name, v.workload, DuktapeImagePad)
	v.img = img
	return v
}

// workload runs inside the virtine (execution environment B, Fig 10).
func (v *VirtineJS) workload(a any) error {
	n := a.(*wasp.NativeCtx)
	charge := func(c uint64) { n.Charge(c) }

	var eng *Engine
	if st := n.Restored(); st != nil {
		// The initialized engine heap arrived with the snapshot
		// restore (already charged as the memcpy); rebuilding our Go
		// representation of it is free.
		eng = NewRestoredEngine(charge)
	} else {
		eng = NewEngine(charge) // charges EngineInitCost
		eng.InstallBindings(clientBindings())
		if err := n.TakeSnapshot(engineReady{}); err != nil {
			return err
		}
	}

	// get_data: ask the hypervisor for the payload (§6.5).
	got, err := n.Hypercall(hypercall.NrGetData, dataBuf, 1<<20)
	if err != nil {
		return err
	}
	mem := n.Mem()
	input := string(mem[dataBuf : dataBuf+got])

	eng.Bind("input", input)
	out, err := eng.Eval(Base64JS)
	if err != nil {
		return err
	}
	encoded := ToString(out)

	copy(mem[dataBuf:], encoded)
	if _, err := n.Hypercall(hypercall.NrReturnData, dataBuf, uint64(len(encoded))); err != nil {
		return err
	}
	if !v.NoTeardown {
		eng.Close() // charges TeardownCost
	}
	_, err = n.Hypercall(hypercall.NrExit, 0)
	return err
}

// Encode runs one base64 encoding in a virtine, returning the encoded
// string and advancing clk.
func (v *VirtineJS) Encode(data []byte, clk *cycles.Clock) (string, error) {
	env := hypercall.NewEnv()
	env.DataIn = data
	res, err := v.W.Run(v.img, wasp.RunConfig{
		Policy:   v.runPolicy(),
		Env:      env,
		Snapshot: v.Snapshot,
	}, clk)
	if err != nil {
		return "", err
	}
	return string(res.DataOut), nil
}

// runPolicy is one run's hypercall policy: v's mask, with get_data
// allowed at most once (§6.5). The one-shot state is the run's own.
func (v *VirtineJS) runPolicy() hypercall.Policy {
	return &hypercall.OneShot{Inner: v.pol, Once: hypercall.MaskOf(hypercall.NrGetData)}
}

// NativeEncode is the baseline: allocate a context, populate bindings,
// evaluate, tear down — all in the client's own address space.
func NativeEncode(data []byte, clk *cycles.Clock) (string, error) {
	charge := func(c uint64) { clk.Advance(c) }
	eng := NewEngine(charge)
	eng.InstallBindings(clientBindings())
	clk.Advance(cycles.MemcpyCost(len(data)))
	eng.Bind("input", string(data))
	out, err := eng.Eval(Base64JS)
	if err != nil {
		return "", err
	}
	encoded := ToString(out)
	clk.Advance(cycles.MemcpyCost(len(encoded)))
	eng.Close()
	return encoded, nil
}

// clientBindings are the native functions the §6.5 client registers.
func clientBindings() map[string]Builtin {
	return map[string]Builtin{
		"log": func(args []Value) (Value, error) { return nil, nil },
		"len": func(args []Value) (Value, error) {
			if len(args) == 0 {
				return numVal(0), nil
			}
			return numVal(float64(len(ToString(args[0])))), nil
		},
	}
}

// NewRestoredEngine returns an engine whose heap came from a snapshot:
// no initialization cost is charged (the restore memcpy already was),
// and the core object graph plus client bindings are considered present.
func NewRestoredEngine(charge func(uint64)) *Engine {
	e := &Engine{global: newScope(nil), charge: charge}
	e.installCore()
	for name, fn := range clientBindings() {
		e.global.define(name, fn)
	}
	return e
}

// Fig14Variant names one bar of Fig 14.
type Fig14Variant struct {
	Name       string
	Snapshot   bool
	NoTeardown bool
}

// Fig14Variants is the experiment matrix.
var Fig14Variants = []Fig14Variant{
	{"virtine", false, false},
	{"virtine+snapshot", true, false},
	{"virtine NT", false, true},
	{"virtine+snapshot+NT", true, true},
}

// Fig14Point is one measured bar.
type Fig14Point struct {
	Name     string
	Cycles   uint64 // mean per invocation
	Micros   float64
	Slowdown float64 // vs native
}

// RunFig14 measures the native baseline and all virtine variants with
// the given payload size, averaging over trials (after one warm-up run
// per variant to populate pool and snapshot).
func RunFig14(w *wasp.Wasp, dataLen, trials int) ([]Fig14Point, error) {
	data := make([]byte, dataLen)
	for i := range data {
		data[i] = byte(i * 31)
	}
	var out []Fig14Point

	nclk := cycles.NewClock()
	var nativeOut string
	for i := 0; i < trials; i++ {
		s, err := NativeEncode(data, nclk)
		if err != nil {
			return nil, err
		}
		nativeOut = s
	}
	native := nclk.Now() / uint64(trials)
	out = append(out, Fig14Point{Name: "native", Cycles: native, Micros: cycles.Micros(native), Slowdown: 1})

	for _, variant := range Fig14Variants {
		v := NewVirtineJS(w, variant.Snapshot, variant.NoTeardown)
		if _, err := v.Encode(data, cycles.NewClock()); err != nil {
			return nil, err // warm-up (takes the snapshot)
		}
		clk := cycles.NewClock()
		for i := 0; i < trials; i++ {
			got, err := v.Encode(data, clk)
			if err != nil {
				return nil, err
			}
			if got != nativeOut {
				return nil, fmt.Errorf("js: %s output mismatch", variant.Name)
			}
		}
		mean := clk.Now() / uint64(trials)
		out = append(out, Fig14Point{
			Name:     variant.Name,
			Cycles:   mean,
			Micros:   cycles.Micros(mean),
			Slowdown: float64(mean) / float64(native),
		})
	}
	return out, nil
}
