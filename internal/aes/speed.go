package aes

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/wasp"
)

// This file is the §6.4 experiment: `openssl speed -evp aes-128-cbc`
// with the block cipher running natively versus in virtine context.
//
// Cost model: native OpenSSL uses AES-NI, so in-virtine and native
// encryption compute is charged at the hardware-accelerated rate below
// (ComputeCost). The Go cipher in aes.go, the 32-bit table formulation,
// supplies the bytes; its host time is never charged, so the clock a
// guest reads is the same whatever the host spends. The virtine version
// pays, per invocation, the full snapshot-restore of its ~21 KB image
// (§6.4: "virtine creation in this example is memory bound, since copying
// the snapshot comprises the dominant cost") plus the data-in/data-out
// hypercalls.

// AESNICyclesPerByteNum/Den encode ≈0.2 cycles/byte for pipelined
// AES-128-CBC on a modern core with AES-NI.
const (
	aesniNum = 2
	aesniDen = 10
)

// ComputeCost returns the modelled AES-NI compute cost for n bytes.
func ComputeCost(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(n)*aesniNum/aesniDen + 40 // +40: key schedule amortized
}

// OpenSSLImagePad pads the virtine image to the paper's ~21 KB OpenSSL
// virtine image size.
const OpenSSLImagePad = 21 << 10

// VirtineCipher runs AES-128-CBC encryption inside a virtine per
// invocation, with snapshotting — the modified libopenssl of §6.4.
type VirtineCipher struct {
	W     *wasp.Wasp
	img   *guest.Image
	pol   hypercall.Policy
	iv    []byte
	cache *Cipher
}

// NewVirtineCipher builds the virtine-backed cipher.
func NewVirtineCipher(w *wasp.Wasp, key, iv []byte) (*VirtineCipher, error) {
	c, err := New(key)
	if err != nil {
		return nil, err
	}
	vc := &VirtineCipher{
		W:     w,
		pol:   hypercall.MaskOf(hypercall.NrGetData, hypercall.NrReturnData),
		iv:    append([]byte(nil), iv...),
		cache: c,
	}
	native := func(a any) error {
		n := a.(*wasp.NativeCtx)
		if n.Restored() == nil {
			// Key schedule + cipher context allocation happen once,
			// captured in the snapshot.
			n.Charge(1200)
			if err := n.TakeSnapshot("ctx"); err != nil {
				return err
			}
		}
		buf := uint64(guest.HeapBase)
		got, err := n.Hypercall(hypercall.NrGetData, buf, 1<<20)
		if err != nil {
			return err
		}
		data := n.Mem()[buf : buf+got]
		if err := vc.cache.EncryptCBC(data, data, vc.iv); err != nil {
			return err
		}
		n.Charge(ComputeCost(len(data)))
		if _, err := n.Hypercall(hypercall.NrReturnData, buf, got); err != nil {
			return err
		}
		_, err = n.Hypercall(hypercall.NrExit, 0)
		return err
	}
	img := guest.NativeBootStub("openssl-aes128", native, 0)
	img.Pad = OpenSSLImagePad
	vc.img = img
	return vc, nil
}

// Encrypt encrypts src in a fresh virtine, returning ciphertext and
// advancing clk by the invocation cost.
func (vc *VirtineCipher) Encrypt(src []byte, clk *cycles.Clock) ([]byte, error) {
	if len(src)%BlockSize != 0 {
		return nil, fmt.Errorf("aes: input not block-aligned")
	}
	env := hypercall.NewEnv()
	env.DataIn = src
	res, err := vc.W.Run(vc.img, wasp.RunConfig{
		Policy:   vc.pol,
		Env:      env,
		Snapshot: true,
	}, clk)
	if err != nil {
		return nil, err
	}
	return res.DataOut, nil
}

// NativeEncrypt is the baseline: the same encryption with only the
// modelled compute cost (plus buffer traffic) charged.
func NativeEncrypt(c *Cipher, src, iv []byte, clk *cycles.Clock) ([]byte, error) {
	dst := make([]byte, len(src))
	if err := c.EncryptCBC(dst, src, iv); err != nil {
		return nil, err
	}
	clk.Advance(ComputeCost(len(src)))
	return dst, nil
}

// SpeedPoint is one row of the `openssl speed` output.
type SpeedPoint struct {
	BlockBytes int
	// Throughput in bytes per virtual second.
	NativeBps  float64
	VirtineBps float64
	Slowdown   float64
}

// Speed runs the §6.4 benchmark: for each block size, encrypt repeatedly
// for `iters` invocations natively and in virtines, and report
// throughput.
func Speed(w *wasp.Wasp, blockSizes []int, iters int) ([]SpeedPoint, error) {
	key := []byte("0123456789abcdef")
	iv := []byte("fedcba9876543210")
	c, err := New(key)
	if err != nil {
		return nil, err
	}
	vc, err := NewVirtineCipher(w, key, iv)
	if err != nil {
		return nil, err
	}
	var out []SpeedPoint
	for _, bs := range blockSizes {
		src := make([]byte, bs)
		for i := range src {
			src[i] = byte(i)
		}
		nclk := cycles.NewClock()
		for i := 0; i < iters; i++ {
			if _, err := NativeEncrypt(c, src, iv, nclk); err != nil {
				return nil, err
			}
		}
		vclk := cycles.NewClock()
		for i := 0; i < iters; i++ {
			if _, err := vc.Encrypt(src, vclk); err != nil {
				return nil, err
			}
		}
		total := float64(bs * iters)
		nSec := float64(nclk.Now()) / cycles.Frequency
		vSec := float64(vclk.Now()) / cycles.Frequency
		out = append(out, SpeedPoint{
			BlockBytes: bs,
			NativeBps:  total / nSec,
			VirtineBps: total / vSec,
			Slowdown:   float64(vclk.Now()) / float64(nclk.Now()),
		})
	}
	return out, nil
}
