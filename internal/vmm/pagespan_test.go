package vmm

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// checkPageSpan stores content (at most PageSize bytes; shorter is a
// short tail page, zero-padded) and checks the span representation
// against the zero-padded page: AppendTo gives it back, the key is its
// hash, equal content dedups to one *Page holding exactly its non-zero
// span, equal sees a one-byte flip anywhere, and copyTo writes exactly
// the prefix asked for.
func checkPageSpan(t *testing.T, content []byte) {
	t.Helper()
	padded := make([]byte, PageSize)
	copy(padded, content)
	lo, hi := 0, 0 // the reference span, by a byte loop
	for i, b := range padded {
		if b != 0 {
			if hi == 0 {
				lo = i
			}
			hi = i + 1
		}
	}

	store := NewPageStore()
	pg := store.Insert(content)
	if (pg == nil) != (hi == 0) {
		t.Fatalf("Insert of content with span [%d, %d) returned page %v", lo, hi, pg)
	}
	if got := pg.AppendTo([]byte{0xEE}); len(got) != 1+PageSize || got[0] != 0xEE || !bytes.Equal(got[1:], padded) {
		t.Fatal("AppendTo does not give the zero-padded content back")
	}
	if key := pg.Key(); key != HashPage(content) || key != sha256.Sum256(padded) {
		t.Fatal("the page's key is not the hash of its content")
	}
	if pg2 := store.Insert(bytes.Clone(padded)); pg2 != pg {
		t.Fatal("equal content stored as two pages")
	}
	if pg != nil && (pg.off != lo || len(pg.span) != hi-lo) {
		t.Fatalf("page holds span [%d, %d), want [%d, %d)", pg.off, pg.off+len(pg.span), lo, hi)
	}
	if got := store.Bytes(); got != int64(hi-lo) {
		t.Fatalf("store holds %d bytes, want the span's %d", got, hi-lo)
	}
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}

	// Prefix lengths at and around the span's ends and the content's.
	cuts := []int{0, 1, lo, lo + 1, hi - 1, hi, hi + 1, len(content), PageSize - 1, PageSize}
	for _, i := range []int{0, lo - 1, lo, (lo + hi) / 2, hi - 1, hi, PageSize - 1} {
		if i < 0 || i >= PageSize {
			continue
		}
		flipped := bytes.Clone(padded)
		flipped[i] ^= 0x5A
		if pg.equal(flipped) {
			t.Fatalf("equal accepts a flip at %d (span [%d, %d))", i, lo, hi)
		}
		for _, n := range cuts {
			if n >= 0 && n <= PageSize && pg.equal(flipped[:n]) != (n <= i) {
				t.Fatalf("equal over a %d-byte prefix with a flip at %d says %v", n, i, n <= i)
			}
		}
	}
	for _, n := range cuts {
		if n < 0 || n > PageSize {
			continue
		}
		if !pg.equal(padded[:n]) {
			t.Fatalf("equal rejects the page's own %d-byte prefix", n)
		}
		buf := bytes.Repeat([]byte{0xEE}, n+8)
		pg.copyTo(buf[:n])
		if !bytes.Equal(buf[:n], padded[:n]) || !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xEE}, 8)) {
			t.Fatalf("copyTo into %d bytes does not write exactly the page's prefix", n)
		}
	}

	store.Unref(pg)
	store.Unref(pg)
	if store.Pages() != 0 || store.Bytes() != 0 {
		t.Fatalf("store holds %d pages and %d bytes after the last unref", store.Pages(), store.Bytes())
	}
}

// pageFrom lays data into a page of PageSize - tail%PageSize bytes from
// offset at, wrapping at its end: FuzzPageSpan's input shape.
func pageFrom(data []byte, at, tail uint16) []byte {
	page := make([]byte, PageSize-int(tail)%PageSize)
	for i := 0; i < min(len(data), len(page)); i++ {
		page[(int(at)+i)%len(page)] = data[i]
	}
	return page
}

// TestPageSpanRoundTrip runs checkPageSpan over hand-placed spans and
// random pages of every texture capture sees: sparse, dense, constant
// and short tail pages.
func TestPageSpanRoundTrip(t *testing.T) {
	for _, c := range []struct {
		data     string
		at, tail uint16
	}{
		{"", 0, 0},
		{"\x01", 0, 0},
		{"\x01", PageSize - 1, 0},
		{"\x01\x02", PageSize - 1, 0},
		{"\x01\x00\x00\x00\x00\x00\x00\x00\x00\x02", 7, 0},
		{"\x01", 9, PageSize - 10},
		{"xyz", 98, PageSize - 100},
	} {
		checkPageSpan(t, pageFrom([]byte(c.data), c.at, c.tail))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		page := make([]byte, PageSize)
		if i%4 == 3 {
			page = page[:1+rng.Intn(PageSize-1)]
		}
		switch i % 3 {
		case 0: // sparse: a few runs
			for r := rng.Intn(4); r >= 0; r-- {
				at := rng.Intn(len(page))
				rng.Read(page[at:min(at+rng.Intn(64), len(page))])
			}
		case 1: // dense
			rng.Read(page)
		default: // constant
			for j := range page {
				page[j] = 0xAB
			}
		}
		checkPageSpan(t, page)
	}
}

// FuzzPageSpan checks the span representation on arbitrary content:
// data laid into a page from offset at, wrapping, in a page of PageSize
// bytes or a short tail page of PageSize - tail%PageSize.
func FuzzPageSpan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, at, tail uint16) {
		checkPageSpan(t, pageFrom(data, at, tail))
	})
}
