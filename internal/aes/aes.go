// Package aes implements AES-128 and CBC mode from scratch (FIPS-197),
// standing in for OpenSSL's EVP aes-128-cbc in the §6.4 experiment: the
// 128-bit block cipher is the "deeply buried, heavily optimized function
// in a large codebase" the paper moves into virtine context.
//
// Encryption is FIPS-197's 32-bit table formulation (four 256-entry word
// tables, one lookup per state byte per round). The §6.4 workload only
// encrypts, so there is no inverse cipher: the tests check ciphertexts
// against the published vectors and decrypt with crypto/aes. The virtual
// cost of a call is still ComputeCost, the modelled AES-NI rate, not
// anything the host spends. The table lookups are indexed by key and
// data, so their host timing leaks through the cache, but a guest sees
// only the virtual clock, which host timing never moves.
package aes

import (
	"encoding/binary"
	"fmt"
)

// be loads and stores the cipher's big-endian column words.
var be = binary.BigEndian

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

// xtime multiplies by x in GF(2^8).
func xtime(b byte) byte { return b<<1 ^ 0x1b&-(b>>7) }

// te holds the encryption round tables of FIPS-197 §5.2.1's 32-bit
// formulation: te[0][x] is the MixColumns column (2·S[x], S[x], S[x],
// 3·S[x]) as a big-endian word, and te[i] is te[0] rotated right by 8·i
// bits. One round is then 16 lookups and XORs on four column words
// instead of SubBytes, ShiftRows and MixColumns over bytes.
var te [4][256]uint32

func init() {
	for i, v := range sbox {
		w := uint32(xtime(v))<<24 | uint32(v)<<16 | uint32(v)<<8 | uint32(xtime(v)^v)
		for t := range te {
			te[t][i] = w
			w = w>>8 | w<<24
		}
	}
}

// encrypt runs the cipher on one block held as four big-endian column
// words: round key 0, nine table rounds, then the last round, SubBytes
// on the bytes ShiftRows selects and no MixColumns.
func (c *Cipher) encrypt(s0, s1, s2, s3 uint32) (uint32, uint32, uint32, uint32) {
	rk := &c.rk
	s0 ^= rk[0]
	s1 ^= rk[1]
	s2 ^= rk[2]
	s3 ^= rk[3]
	for k := 4; k < 40; k += 4 {
		t0 := te[0][s0>>24] ^ te[1][s1>>16&0xff] ^ te[2][s2>>8&0xff] ^ te[3][s3&0xff] ^ rk[k]
		t1 := te[0][s1>>24] ^ te[1][s2>>16&0xff] ^ te[2][s3>>8&0xff] ^ te[3][s0&0xff] ^ rk[k+1]
		t2 := te[0][s2>>24] ^ te[1][s3>>16&0xff] ^ te[2][s0>>8&0xff] ^ te[3][s1&0xff] ^ rk[k+2]
		t3 := te[0][s3>>24] ^ te[1][s0>>16&0xff] ^ te[2][s1>>8&0xff] ^ te[3][s2&0xff] ^ rk[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	const r0, r1, r2, r3 = 0xff000000, 0x00ff0000, 0x0000ff00, 0x000000ff
	return subWord(s0&r0|s1&r1|s2&r2|s3&r3) ^ rk[40], subWord(s1&r0|s2&r1|s3&r2|s0&r3) ^ rk[41],
		subWord(s2&r0|s3&r1|s0&r2|s1&r3) ^ rk[42], subWord(s3&r0|s0&r1|s1&r2|s2&r3) ^ rk[43]
}

// EncryptCBC encrypts src (a multiple of 16 bytes) under CBC with iv,
// writing to dst. Each block is read before it is written, so dst may be
// src.
func (c *Cipher) EncryptCBC(dst, src, iv []byte) error {
	if len(src)%BlockSize != 0 {
		return fmt.Errorf("aes: CBC input %d not a multiple of %d", len(src), BlockSize)
	}
	if len(dst) < len(src) || len(iv) != BlockSize {
		return fmt.Errorf("aes: bad CBC buffers")
	}
	c0, c1, c2, c3 := be.Uint32(iv[0:4]), be.Uint32(iv[4:8]), be.Uint32(iv[8:12]), be.Uint32(iv[12:16])
	for off := 0; off < len(src); off += BlockSize {
		in, out := src[off:off+BlockSize], dst[off:off+BlockSize]
		c0, c1, c2, c3 = c.encrypt(c0^be.Uint32(in[0:4]), c1^be.Uint32(in[4:8]), c2^be.Uint32(in[8:12]), c3^be.Uint32(in[12:16]))
		be.PutUint32(out[0:4], c0)
		be.PutUint32(out[4:8], c1)
		be.PutUint32(out[8:12], c2)
		be.PutUint32(out[12:16], c3)
	}
	return nil
}
