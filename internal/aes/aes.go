// Package aes implements AES-128 and CBC mode from scratch (FIPS-197),
// standing in for OpenSSL's EVP aes-128-cbc in the §6.4 experiment: the
// 128-bit block cipher is the "deeply buried, heavily optimized function
// in a large codebase" the paper moves into virtine context.
package aes

import "fmt"

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

var invSbox [256]byte

func init() {
	for i, v := range sbox {
		invSbox[v] = byte(i)
	}
}

var rcon = [11]byte{0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// Cipher is an expanded AES-128 key schedule.
type Cipher struct {
	rk [44]uint32 // 11 round keys
}

// New expands a 16-byte key.
func New(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: key must be %d bytes, got %d", KeySize, len(key))
	}
	c := &Cipher{}
	for i := 0; i < 4; i++ {
		c.rk[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	for i := 4; i < 44; i++ {
		t := c.rk[i-1]
		if i%4 == 0 {
			t = subWord(rotWord(t)) ^ uint32(rcon[i/4])<<24
		}
		c.rk[i] = c.rk[i-4] ^ t
	}
	return c, nil
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xFF])<<16 |
		uint32(sbox[w>>8&0xFF])<<8 | uint32(sbox[w&0xFF])
}

// xtime multiplies by x in GF(2^8). The reduction is a mask, not a branch:
// the top bit of cipher state is a coin flip, and mixColumns does this
// sixteen times a round.
func xtime(b byte) byte { return b<<1 ^ 0x1b&-(b>>7) }

// gmul multiplies in GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

func (c *Cipher) addRoundKey(s *[16]byte, round int) {
	for i := 0; i < 4; i++ {
		w := c.rk[4*round+i]
		s[4*i] ^= byte(w >> 24)
		s[4*i+1] ^= byte(w >> 16)
		s[4*i+2] ^= byte(w >> 8)
		s[4*i+3] ^= byte(w)
	}
}

func subBytes(s *[16]byte) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func invSubBytes(s *[16]byte) {
	for i := range s {
		s[i] = invSbox[s[i]]
	}
}

// State layout: s[4*col + row] (column-major, as FIPS-197).

func shiftRows(s *[16]byte) {
	var t [16]byte
	copy(t[:], s[:])
	for r := 1; r < 4; r++ {
		for col := 0; col < 4; col++ {
			s[4*col+r] = t[4*((col+r)%4)+r]
		}
	}
}

func invShiftRows(s *[16]byte) {
	var t [16]byte
	copy(t[:], s[:])
	for r := 1; r < 4; r++ {
		for col := 0; col < 4; col++ {
			s[4*((col+r)%4)+r] = t[4*col+r]
		}
	}
}

func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		s[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		s[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		s[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}

func invMixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09)
		s[4*c+1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d)
		s[4*c+2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b)
		s[4*c+3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e)
	}
}

// EncryptBlock encrypts one 16-byte block: dst = AES(src).
func (c *Cipher) EncryptBlock(dst, src []byte) {
	var s [16]byte
	copy(s[:], src[:16])
	c.addRoundKey(&s, 0)
	for round := 1; round < 10; round++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		c.addRoundKey(&s, round)
	}
	subBytes(&s)
	shiftRows(&s)
	c.addRoundKey(&s, 10)
	copy(dst[:16], s[:])
}

// DecryptBlock decrypts one 16-byte block.
func (c *Cipher) DecryptBlock(dst, src []byte) {
	var s [16]byte
	copy(s[:], src[:16])
	c.addRoundKey(&s, 10)
	for round := 9; round >= 1; round-- {
		invShiftRows(&s)
		invSubBytes(&s)
		c.addRoundKey(&s, round)
		invMixColumns(&s)
	}
	invShiftRows(&s)
	invSubBytes(&s)
	c.addRoundKey(&s, 0)
	copy(dst[:16], s[:])
}

// EncryptCBC encrypts src (a multiple of 16 bytes) under CBC with iv,
// writing to dst.
func (c *Cipher) EncryptCBC(dst, src, iv []byte) error {
	if len(src)%BlockSize != 0 {
		return fmt.Errorf("aes: CBC input %d not a multiple of %d", len(src), BlockSize)
	}
	if len(dst) < len(src) || len(iv) != BlockSize {
		return fmt.Errorf("aes: bad CBC buffers")
	}
	var chain [16]byte
	copy(chain[:], iv)
	var blk [16]byte
	for off := 0; off < len(src); off += BlockSize {
		for i := 0; i < BlockSize; i++ {
			blk[i] = src[off+i] ^ chain[i]
		}
		c.EncryptBlock(chain[:], blk[:])
		copy(dst[off:], chain[:])
	}
	return nil
}

// DecryptCBC reverses EncryptCBC.
func (c *Cipher) DecryptCBC(dst, src, iv []byte) error {
	if len(src)%BlockSize != 0 {
		return fmt.Errorf("aes: CBC input %d not a multiple of %d", len(src), BlockSize)
	}
	if len(dst) < len(src) || len(iv) != BlockSize {
		return fmt.Errorf("aes: bad CBC buffers")
	}
	var chain [16]byte
	copy(chain[:], iv)
	var out [16]byte
	for off := 0; off < len(src); off += BlockSize {
		c.DecryptBlock(out[:], src[off:off+BlockSize])
		for i := 0; i < BlockSize; i++ {
			out[i] ^= chain[i]
		}
		copy(chain[:], src[off:off+BlockSize])
		copy(dst[off:], out[:])
	}
	return nil
}
