// wasp-run executes a VX assembly program as a virtine under an embedded
// Wasp hypervisor — the "smoketest" entry point of the artifact. It
// assembles the source, runs it under a selectable hypercall policy, and
// reports the guest's output and the run's cost breakdown.
//
// Usage:
//
//	wasp-run prog.s                     # deny-all policy
//	wasp-run -policy allow prog.s       # permissive
//	wasp-run -policy 0xFC prog.s        # bit-mask
//	wasp-run -data "payload" prog.s     # preload the get_data channel
//	wasp-run -platform hyper-v prog.s   # run on the WHP cost profile
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/obs"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

func main() {
	policy := flag.String("policy", "deny", `hypercall policy: "deny", "allow", or a hex bit mask`)
	data := flag.String("data", "", "payload for the get_data hypercall")
	netIn := flag.String("net", "", "bytes queued on the virtual socket")
	snapshot := flag.Bool("snapshot", false, "enable snapshotting")
	platform := flag.String("platform", "kvm", `hypervisor backend: "kvm" or "hyper-v" (Fig 5 cost profiles)`)
	trials := flag.Int("n", 1, "number of invocations")
	tracePath := flag.String("trace", "", "write the runs' flight as Chrome trace_event JSON to this file, plus a metrics dump to stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wasp-run [flags] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := guest.FromAsm(flag.Arg(0), string(src))
	if err != nil {
		fatal(err)
	}

	var pol hypercall.Policy
	switch *policy {
	case "deny":
		pol = hypercall.DenyAll{}
	case "allow":
		pol = hypercall.AllowAll{}
	default:
		mask, err := strconv.ParseUint(*policy, 0, 64)
		if err != nil {
			fatal(fmt.Errorf("bad policy %q", *policy))
		}
		pol = hypercall.Mask(mask)
	}

	plat, ok := vmm.ByName(*platform)
	if !ok {
		fatal(fmt.Errorf("unknown platform %q (want kvm or hyper-v)", *platform))
	}
	var tracer *obs.Tracer
	wopts := []wasp.Option{wasp.WithPlatforms(plat)}
	if *tracePath != "" {
		tracer = obs.NewTracer()
		tracer.SetEnabled(true)
		wopts = append(wopts, wasp.WithTracer(tracer))
	}
	w := wasp.New(wopts...)
	if tracer != nil {
		w.RegisterMetrics(tracer.Metrics)
	}
	for i := 0; i < *trials; i++ {
		env := hypercall.NewEnv()
		env.DataIn = []byte(*data)
		env.NetIn = []byte(*netIn)
		clk := cycles.NewClock()
		res, err := w.Run(img, wasp.RunConfig{
			Policy:   pol,
			Env:      env,
			Snapshot: *snapshot,
		}, clk)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("run %d: exit=%d cycles=%d (%.2f us) entries=%d io-exits=%d snapshot=%v\n",
			i, res.ExitCode, res.Cycles, cycles.Micros(res.Cycles), res.Entries, res.IOExits, res.SnapshotUsed)
		if len(res.Stdout) > 0 {
			fmt.Printf("  stdout: %q\n", res.Stdout)
		}
		if len(res.NetOut) > 0 {
			fmt.Printf("  socket: %q\n", res.NetOut)
		}
		if len(res.DataOut) > 0 {
			fmt.Printf("  data:   %q\n", res.DataOut)
		}
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, tracer); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wasp-run: %d trace events -> %s\n", tracer.EventCount(), *tracePath)
		tracer.Metrics.WriteText(os.Stderr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wasp-run:", err)
	os.Exit(1)
}
