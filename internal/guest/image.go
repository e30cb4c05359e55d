// Package guest defines the virtine image format and the pre-built
// runtime environments of §5.4: the boot stubs that bring a virtual
// context from 16-bit real mode up to 32-bit protected or 64-bit long
// mode (Fig 10's two default environments), and the memory layout every
// virtine shares with its toolchain.
//
// A virtine image is a flat binary loaded at guest address 0x8000 (§5.1:
// "Wasp simply accepts a binary image, loads it at guest virtual address
// 0x8000, and enters the VM context"). Images are small and static —
// the paper's C-extension images are ~16 KB including the mini-libc.
package guest

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Memory-layout constants shared by the toolchain, boot stubs, and Wasp.
const (
	// ArgAddr is where marshalled arguments are placed: "the argument,
	// n, is loaded into the virtine's address space at address 0x0"
	// (§6.1).
	ArgAddr = 0x0
	// ArgMax bounds the marshalled-argument region.
	ArgMax = 0x1000
	// TableBase..TableEnd hold the long-mode identity-map page tables.
	TableBase = 0x1000
	TableEnd  = 0x4000
	// RetAddr is where a virtine function stores its raw return value
	// before calling return_data.
	RetAddr = 0x4000
	// RetMax bounds the return-value region.
	RetMax = 0x1000
	// HeapBase is scratch/heap space below the image.
	HeapBase = 0x5000
	// LoadAddr is where every image is loaded.
	LoadAddr = 0x8000
	// StackReserve is the stack budget above the image footprint.
	StackReserve = 8 << 10
	// HeapReserve is the default heap budget after the image.
	HeapReserve = 16 << 10
	// MinMemory is the smallest guest memory Wasp provisions.
	MinMemory = 64 << 10
)

// NativeFunc is a host-implemented workload that runs in virtine context
// (execution environment B of Fig 10, driven through the Wasp runtime API
// directly). The concrete context type lives in internal/wasp; it is an
// any here to avoid a dependency cycle.
type NativeFunc func(ctx any) error

// Image is a packaged virtine binary plus its resource requirements.
type Image struct {
	// Name keys snapshots: all executions of the same image share one
	// snapshot (§5.2).
	Name string

	Code   []byte
	Origin uint64
	Entry  uint64
	Mode   isa.Mode // start mode (Mode16 for self-booting images)

	// Pad is synthetic zero padding counted into the image footprint —
	// the Fig 12 experiment pads a minimal image up to 16 MB.
	Pad int

	// ExtraHeap enlarges the heap reservation beyond HeapReserve for
	// workloads with real allocation needs (the JS engine).
	ExtraHeap int

	// Native, when non-nil, runs after the image's boot stub halts.
	Native NativeFunc

	// Handoff is where the image's boot stub hands off to the workload
	// (its vx_long64 label, or vx_prot32 for a protected-mode stub), 0
	// for an image without one. Nothing before it reads the arguments,
	// so Wasp copies them in there and records one boot per content up
	// to it.
	Handoff uint64

	// contentKey caches ContentKey for images built by the package
	// constructors; WithName/WithPad copies inherit it.
	contentKey string
}

// ContentKey identifies the image by executable content: a hash over the
// code bytes, load origin, entry point, start mode and hand-off —
// everything the decoded-code cache and boot replay depend on, and
// nothing they do not (Name and Pad are excluded: renamed tenant clones
// and padded variants of one binary decode identically). The Wasp code
// registry keys on it, so clones made with WithName share one decode.
// Safe even under hash collision: code adoption verifies page content
// against guest memory before install.
func (im *Image) ContentKey() string {
	if im.contentKey == "" {
		return contentKey(im)
	}
	return im.contentKey
}

// contentKey computes the FNV-1a content hash with length-prefixed
// fields, mixing in the structural parameters before the code bytes.
func contentKey(im *Image) string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(im.Origin)
	mix(im.Entry)
	mix(uint64(im.Mode))
	mix(im.Handoff)
	mix(uint64(len(im.Code)))
	for _, b := range im.Code {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// FromAsm assembles src into an image named name.
func FromAsm(name, src string) (*Image, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("guest: assembling %s: %w", name, err)
	}
	return FromProgram(name, p)
}

// FromProgram builds an image named name from an assembled program.
func FromProgram(name string, p *asm.Program) (*Image, error) {
	if p.Origin < HeapBase {
		return nil, fmt.Errorf("guest: image %s origin %#x collides with reserved layout", name, p.Origin)
	}
	im := &Image{
		Name:   name,
		Code:   p.Code,
		Origin: p.Origin,
		Entry:  p.Entry,
		Mode:   p.StartMode,
	}
	for _, label := range []string{"vx_long64", "vx_prot32"} {
		if at, ok := p.Labels[label]; ok {
			im.Handoff = at
			break
		}
	}
	im.contentKey = contentKey(im)
	return im, nil
}

// MustFromAsm is FromAsm for static sources; it panics on error.
func MustFromAsm(name, src string) *Image {
	im, err := FromAsm(name, src)
	if err != nil {
		panic(err)
	}
	return im
}

// Footprint is the image's memory footprint in bytes: everything that a
// snapshot must capture and a load must copy (code + data + padding,
// measured from address zero so the argument page and page tables are
// included).
func (im *Image) Footprint() int {
	return int(im.Origin) + len(im.Code) + im.Pad
}

// MemBytes is the guest-physical memory Wasp provisions for this image:
// footprint + heap + stack, rounded to 4 KiB, at least MinMemory.
func (im *Image) MemBytes() int {
	n := im.Footprint() + HeapReserve + im.ExtraHeap + StackReserve
	n = (n + 4095) &^ 4095
	if n < MinMemory {
		n = MinMemory
	}
	return n
}

// WithName returns a copy of the image under a new name. Snapshots,
// COW shells, and the scheduler's per-image admission and service
// telemetry all key on the name, so a renamed copy is an isolated
// tenant of the same binary.
func (im *Image) WithName(name string) *Image {
	out := *im
	out.Name = name
	return &out
}

// WithPad returns a copy of the image padded with extra zero bytes, for
// the Fig 12 image-size sweep. The copy gets a distinct name so it takes
// its own snapshot.
func (im *Image) WithPad(pad int) *Image {
	out := *im
	out.Pad = pad
	out.Name = fmt.Sprintf("%s+pad%d", im.Name, pad)
	return &out
}
