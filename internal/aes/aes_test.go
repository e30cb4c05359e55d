package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cycles"
	"repro/internal/wasp"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFIPS197Vector(t *testing.T) {
	// FIPS-197 Appendix B.
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := unhex(t, "3243f6a8885a308d313198a2e0370734")
	want := unhex(t, "3925841d02dc09fbdc118597196a0b32")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.EncryptBlock(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("encrypt = %x, want %x", got, want)
	}
	back := make([]byte, 16)
	c.DecryptBlock(back, got)
	if !bytes.Equal(back, pt) {
		t.Fatalf("decrypt = %x, want %x", back, pt)
	}
}

func TestNISTCBCVector(t *testing.T) {
	// NIST SP 800-38A F.2.1 CBC-AES128.Encrypt.
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	iv := unhex(t, "000102030405060708090a0b0c0d0e0f")
	pt := unhex(t, "6bc1bee22e409f96e93d7e117393172a"+
		"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+
		"f69f2445df4f9b17ad2b417be66c3710")
	want := unhex(t, "7649abac8119b246cee98e9b12e9197d"+
		"5086cb9b507219ee95db113a917678b2"+
		"73bed6b8e3c1743b7116e69e22229516"+
		"3ff1caa1681fac09120eca307586e1a7")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(pt))
	if err := c.EncryptCBC(got, pt, iv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CBC encrypt mismatch:\n got %x\nwant %x", got, want)
	}
	back := make([]byte, len(pt))
	if err := c.DecryptCBC(back, got, iv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("CBC round trip failed")
	}
}

// TestEncryptMatchesStdlib checks the table cipher against crypto/aes
// over seeded random keys: one block, then a CBC run of up to 8 blocks
// (in place every other key), and every block back through the textbook
// DecryptBlock and the chaining XOR.
func TestEncryptMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key, iv := make([]byte, KeySize), make([]byte, BlockSize)
	for k := 0; k < 1000; k++ {
		rng.Read(key)
		rng.Read(iv)
		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		pt := make([]byte, BlockSize*(1+rng.Intn(8)))
		rng.Read(pt)

		got, want, back := make([]byte, BlockSize), make([]byte, BlockSize), make([]byte, BlockSize)
		c.EncryptBlock(got, pt)
		ref.Encrypt(want, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x: EncryptBlock = %x, crypto/aes %x", key, got, want)
		}
		c.DecryptBlock(back, got)
		if !bytes.Equal(back, pt[:BlockSize]) {
			t.Fatalf("key %x: DecryptBlock(EncryptBlock(p)) = %x, want %x", key, back, pt[:BlockSize])
		}

		want = make([]byte, len(pt))
		cipher.NewCBCEncrypter(ref, iv).CryptBlocks(want, pt)
		got = make([]byte, len(pt))
		if k%2 == 1 {
			copy(got, pt)
			err = c.EncryptCBC(got, got, iv)
		} else {
			err = c.EncryptCBC(got, pt, iv)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x: EncryptCBC = %x, crypto/aes %x", key, got, want)
		}
		prev := iv
		for off := 0; off < len(got); off += BlockSize {
			c.DecryptBlock(back, got[off:])
			for i := range back {
				back[i] ^= prev[i]
			}
			if !bytes.Equal(back, pt[off:off+BlockSize]) {
				t.Fatalf("key %x block %d: DecryptBlock does not invert EncryptCBC", key, off/BlockSize)
			}
			prev = got[off : off+BlockSize]
		}
	}
}

func TestEncryptDecryptProperty(t *testing.T) {
	c, err := New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	f := func(block [16]byte) bool {
		var ct, back [16]byte
		c.EncryptBlock(ct[:], block[:])
		c.DecryptBlock(back[:], ct[:])
		return back == block
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCBCPropagates(t *testing.T) {
	// Flipping one plaintext bit must change every subsequent block.
	c, _ := New([]byte("0123456789abcdef"))
	iv := []byte("fedcba9876543210")
	pt := make([]byte, 64)
	ct1 := make([]byte, 64)
	ct2 := make([]byte, 64)
	if err := c.EncryptCBC(ct1, pt, iv); err != nil {
		t.Fatal(err)
	}
	pt[0] ^= 1
	if err := c.EncryptCBC(ct2, pt, iv); err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 4; blk++ {
		if bytes.Equal(ct1[blk*16:(blk+1)*16], ct2[blk*16:(blk+1)*16]) {
			t.Fatalf("block %d unchanged after plaintext flip", blk)
		}
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := New([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
	c, _ := New([]byte("0123456789abcdef"))
	if err := c.EncryptCBC(make([]byte, 15), make([]byte, 15), make([]byte, 16)); err == nil {
		t.Fatal("non-aligned CBC accepted")
	}
	if err := c.EncryptCBC(make([]byte, 16), make([]byte, 16), make([]byte, 8)); err == nil {
		t.Fatal("short IV accepted")
	}
}

func TestVirtineCipherMatchesNative(t *testing.T) {
	w := wasp.New()
	key := []byte("0123456789abcdef")
	iv := []byte("fedcba9876543210")
	vc, err := NewVirtineCipher(w, key, iv)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(key)
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i * 7)
	}
	want := make([]byte, len(src))
	if err := c.EncryptCBC(want, src, iv); err != nil {
		t.Fatal(err)
	}
	got, err := vc.Encrypt(src, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("virtine ciphertext differs from native")
	}
}

func TestSpeedShape(t *testing.T) {
	// §6.4's structural claims: the virtine is slower; the slowdown
	// shrinks as the block grows (fixed snapshot-copy amortized); at
	// 16 KB the slowdown is roughly the paper's ~17x (we accept 8-35x).
	w := wasp.New()
	pts, err := Speed(w, []int{64, 1024, 16384}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatal("missing points")
	}
	for _, p := range pts {
		if p.Slowdown <= 1 {
			t.Fatalf("virtine faster than native at %d bytes?!", p.BlockBytes)
		}
	}
	if !(pts[0].Slowdown > pts[1].Slowdown && pts[1].Slowdown > pts[2].Slowdown) {
		t.Fatalf("slowdown not amortizing: %v %v %v", pts[0].Slowdown, pts[1].Slowdown, pts[2].Slowdown)
	}
	if s := pts[2].Slowdown; s < 8 || s > 35 {
		t.Fatalf("16KB slowdown = %.1fx, want ≈17x (8-35x band)", s)
	}
}

// BenchmarkEncryptCBC16K times the host cost of guest_compute's AES
// request (16 KB CBC) in the table cipher, ~0.1 ms/op on a 2-vCPU VM.
// A call's virtual cost is the modelled AES-NI rate (ComputeCost)
// whatever this reads, so it is pure emulation overhead.
func BenchmarkEncryptCBC16K(b *testing.B) {
	c, err := New(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	src, dst, iv := make([]byte, 16<<10), make([]byte, 16<<10), make([]byte, 16)
	b.SetBytes(int64(len(src)))
	for b.Loop() {
		if err := c.EncryptCBC(dst, src, iv); err != nil {
			b.Fatal(err)
		}
	}
}
