package guest

import (
	"strings"

	"repro/internal/asm"
)

// This file holds the pre-built boot stubs — the "roughly 160 lines of
// assembly" of §4.2 that closely mirror the boot sequence of a classic OS
// kernel: configure protected mode, a GDT, paging, and finally jump to
// 64-bit code. The stubs are templates: workload assembly is spliced in
// at the workload marker, already running in the target mode.
//
// Hand-off contract: a stub's last instruction is the ljmp to its
// hand-off label (vx_long64, or vx_prot32 without paging), and nothing
// before that label touches [ArgAddr, ArgAddr+ArgMax). Wasp relies on it
// twice: a boot's arguments are copied in at the hand-off, and each
// backend records one boot per image content up to the hand-off and
// replays it for every argument.

// bootHeader brings the machine from 16-bit real mode into 32-bit
// protected mode: interrupt disable, cold GDT load, CR0.PE flip, far jump
// (Table 1 components: lgdt 4118, protected transition 3217, ljmp 175).
const bootHeader = `
.bits 16
.org 0x8000
_start:
	cli
	lgdt gdt_desc
	rdcr rax, cr0
	or rax, 1
	movcr cr0, rax
	ljmp32 vx_prot32
.bits 32
vx_prot32:
`

// bootPaging builds the long-mode identity mapping in guest memory —
// three 4 KiB tables (12 KiB of stores, Table 1's dominant 28 K-cycle
// component), 2 MB large pages covering 1 GB — then enables PAE, LME and
// paging, reloads the GDT, and jumps to 64-bit code (long transition 681,
// ljmp 190, first instruction 74).
const bootPaging = `
	movi rdi, 0x3000
	movi rcx, 512
	movi rax, 0x83
	movi rbx, 0
	movi rdx, 0x200000
vx_pdloop:
	store [rdi], rax
	store [rdi+4], rbx
	add rax, rdx
	add rdi, 8
	dec rcx
	jnz vx_pdloop
	movi rdi, 0x1000
	movi rcx, 1024
vx_zloop:
	store [rdi], rbx
	store [rdi+4], rbx
	add rdi, 8
	dec rcx
	jnz vx_zloop
	movi rdi, 0x1000
	movi rax, 0x2003
	store [rdi], rax
	movi rdi, 0x2000
	movi rax, 0x3003
	store [rdi], rax
	movi rax, 0x1000
	movcr cr3, rax
	rdcr rax, cr4
	or rax, 0x20
	movcr cr4, rax
	rdcr rax, efer
	or rax, 0x100
	movcr efer, rax
	rdcr rax, cr0
	movi rbx, 0x80000000
	or rax, rbx
	movcr cr0, rax
	lgdt gdt_desc
	ljmp64 vx_long64
.bits 64
vx_long64:
`

// bootFooter carries the GDT: a null descriptor plus flat 32- and 64-bit
// code segments, and the 10-byte pseudo-descriptor lgdt reads. The
// __image_end label marks the end of the packaged image; the mini-libc's
// bump allocator starts its heap there (via the __image_end() intrinsic).
const bootFooter = `
.align 8
gdt:
	.dq 0
	.dq 0x00CF9A000000FFFF
	.dq 0x00AF9A000000FFFF
gdt_desc:
	.dw 23
	.dq gdt
.align 8
__image_end:
`

// WrapLongMode wraps 64-bit workload assembly in the full real→protected→
// long boot sequence. The workload starts in long mode with identity
// paging active; rsp is set by the vCPU to the top of guest memory.
func WrapLongMode(workload string) string {
	return bootHeader + bootPaging + strings.TrimSpace(workload) + "\n" + bootFooter
}

// AssembleLongMode assembles typed 64-bit workload statements inside the
// long-mode boot stub: the program WrapLongMode's text assembles to, with
// no workload text printed or parsed. The stub's own text goes through
// the assembler's text front end on every call.
func AssembleLongMode(workload []asm.Stmt) (*asm.Program, error) {
	u := asm.NewUnit()
	if err := u.Parse(bootHeader + bootPaging); err != nil {
		return nil, err
	}
	u.Add(workload...)
	if err := u.Parse(bootFooter); err != nil {
		return nil, err
	}
	return u.Assemble()
}

// WrapProtected wraps 32-bit workload assembly in the real→protected boot
// sequence with no paging — the environment the §4.2 echo server uses
// ("this example does not actually require 64-bit mode, so we omit paging
// and leave the context in protected mode").
func WrapProtected(workload string) string {
	return bootHeader + strings.TrimSpace(workload) + "\n" + bootFooter
}

// MinimalHalt is the smallest useful virtine: boot to long mode and halt.
// The Fig 12 image-size sweep pads this image; Table 1 instruments its
// boot.
func MinimalHalt() *Image {
	return MustFromAsm("minimal-halt", WrapLongMode("\thlt\n"))
}

// MinimalHaltProtected boots to protected mode and halts.
func MinimalHaltProtected() *Image {
	return MustFromAsm("minimal-halt32", WrapProtected("\thlt\n"))
}

// RealModeHalt halts immediately in real mode — the cheapest context of
// Fig 3's 16-bit series.
func RealModeHalt() *Image {
	return MustFromAsm("real-halt", ".bits 16\n.org 0x8000\n_start:\n\thlt\n")
}

// NativeBootStub is the boot image used for native workloads (execution
// environment B): boot to long mode, then halt; Wasp then invokes the
// registered NativeFunc with the booted context.
func NativeBootStub(name string, native NativeFunc, extraHeap int) *Image {
	im := MustFromAsm(name, WrapLongMode("\thlt\n"))
	im.Name = name
	im.Native = native
	im.ExtraHeap = extraHeap
	return im
}
