package volume

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// freshDecode decodes brick i of s with a fresh flate reader and fresh
// buffers for the page: the unpooled decoder, kept as the oracle for
// the pooled one's data and error texts.
func freshDecode(s *PagedSource, i int, dst []float32) error {
	e := s.hdr.dir[i]
	stored := make([]byte, e.stored)
	if _, err := s.f.ReadAt(stored, int64(e.off)); err != nil {
		return fmt.Errorf("volume: reading brick %d of %s: %w", i, s.path, err)
	}
	enc := stored
	if s.hdr.compressed() {
		raw := make([]byte, len(dst)*4)
		zr := flate.NewReader(bytes.NewReader(stored))
		defer zr.Close()
		if _, err := io.ReadFull(zr, raw); err != nil {
			return fmt.Errorf("volume: decompressing brick %d of %s: %w", i, s.path, err)
		}
		if n, err := zr.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			return fmt.Errorf("volume: brick %d of %s has oversized payload", i, s.path)
		}
		enc = raw
	}
	for j := range dst {
		dst[j] = bitsFloat(binary.LittleEndian.Uint32(enc[j*4:]))
	}
	return nil
}

// pageVoxels returns a destination slice for brick i's core.
func pageVoxels(s *PagedSource, i int) []float32 {
	return make([]float32, s.grid.Bricks[i].Core.Ext.Voxels())
}

// diffPage returns an error unless got, a pooled decode of brick i,
// equals the fresh decode bit for bit.
func diffPage(s *PagedSource, i int, got []float32) error {
	want := pageVoxels(s, i)
	if err := freshDecode(s, i, want); err != nil {
		return err
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			return fmt.Errorf("brick %d voxel %d = %v, fresh decode %v", i, j, got[j], want[j])
		}
	}
	return nil
}

// TestPooledPageDecodeMatchesFresh decodes every page of a raw and a
// flate file through the pooled decoders — four goroutines at once, each
// in its own order — and compares each with a fresh-reader decode.
func TestPooledPageDecodeMatchesFresh(t *testing.T) {
	for _, compress := range []bool{false, true} {
		path, _ := writeV2(t, 137, Dims{21, 17, 13}, V2Options{BrickEdge: 6, Compress: compress})
		ps, err := OpenFileV2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		n := ps.BrickGrid().NumBricks()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(w))).Perm(n) {
					got := pageVoxels(ps, i)
					err := ps.readBrickInto(i, got)
					if err == nil {
						err = diffPage(ps, i, got)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// corruptPages writes three copies of a flate v2 file whose brick 0 is
// broken — truncated, with trailing data after the core, and with a
// reserved flate block type — and opens each, alongside the intact file.
func corruptPages(t *testing.T) (good *PagedSource, bad map[string]*PagedSource) {
	t.Helper()
	path, _ := writeV2(t, 139, Dims{16, 12, 10}, V2Options{BrickEdge: 8, Compress: true})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := decodeV2Header(orig)
	if err != nil {
		t.Fatal(err)
	}
	e := hdr.dir[0]
	payload := orig[e.off : e.off+e.stored]
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		t.Fatal(err)
	}
	var long bytes.Buffer
	zw, _ := flate.NewWriter(&long, flate.DefaultCompression)
	zw.Write(append(raw, 1, 2, 3, 4))
	zw.Close()

	setEntry := func(b []byte, off, stored uint64) []byte {
		binary.LittleEndian.PutUint64(b[v2FixedHeaderSize:], off)
		binary.LittleEndian.PutUint64(b[v2FixedHeaderSize+8:], stored)
		return b
	}
	mutations := map[string]func(b []byte) []byte{
		"truncated": func(b []byte) []byte { return setEntry(b, e.off, e.stored-16) },
		"trailing": func(b []byte) []byte {
			return setEntry(append(b, long.Bytes()...), uint64(len(b)), uint64(long.Len()))
		},
		"corrupt": func(b []byte) []byte { b[e.off] = 0x07; return b }, // final block, reserved type
	}
	open := func(p string) *PagedSource {
		ps, err := OpenFileV2(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		ps.SetCache(nil)
		return ps
	}
	bad = map[string]*PagedSource{}
	for name, mutate := range mutations {
		p := filepath.Join(t.TempDir(), name+".gvmr")
		if err := os.WriteFile(p, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		bad[name] = open(p)
	}
	return open(path), bad
}

// TestPageDecodeErrorsMatchFresh checks that the pooled decoder fails a
// truncated, an oversized and a corrupt payload with exactly the fresh
// decoder's error text.
func TestPageDecodeErrorsMatchFresh(t *testing.T) {
	_, bad := corruptPages(t)
	for name, want := range map[string]string{
		"truncated": "unexpected EOF",
		"trailing":  "oversized payload",
		"corrupt":   "corrupt input",
	} {
		ps := bad[name]
		err := ps.readBrickInto(0, pageVoxels(ps, 0))
		ref := freshDecode(ps, 0, pageVoxels(ps, 0))
		if err == nil || ref == nil {
			t.Fatalf("%s: pooled err %v, fresh err %v: want both to fail", name, err, ref)
		}
		if err.Error() != ref.Error() {
			t.Errorf("%s: pooled error %q, fresh %q", name, err, ref)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not say %q", name, err, want)
		}
	}
}

// TestPageDecoderReusableAfterError alternates one decoder between a
// failing page and a good one for 20 rounds: a failure must leave
// nothing behind that changes the next decode.
func TestPageDecoderReusableAfterError(t *testing.T) {
	good, bad := corruptPages(t)
	names := []string{"truncated", "trailing", "corrupt"}
	d := pageDecoders.Get().(*pageDecoder)
	n := good.BrickGrid().NumBricks()
	for round := 0; round < 20; round++ {
		ps := bad[names[round%len(names)]]
		if err := d.decode(ps, 0, pageVoxels(ps, 0)); err == nil {
			t.Fatalf("round %d: %s page decoded without error", round, names[round%len(names)])
		}
		i := round % n
		got := pageVoxels(good, i)
		if err := d.decode(good, i, got); err != nil {
			t.Fatalf("round %d: good page %d after a failure: %v", round, i, err)
		}
		if err := diffPage(good, i, got); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestPageSourceFillsOnlyWholePages: the staging cache materialises
// whole pages, so a page source refuses any other region.
func TestPageSourceFillsOnlyWholePages(t *testing.T) {
	path, _ := writeV2(t, 149, Dims{12, 8, 8}, V2Options{BrickEdge: 4, Compress: true})
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	p := &v2PageSource{s: ps, i: 0}
	d := p.Dims()
	if err := p.Fill(Region{Ext: d}, make([]float32, d.Voxels())); err != nil {
		t.Fatalf("whole page: %v", err)
	}
	sub := Region{Org: [3]int{1, 0, 0}, Ext: Dims{d.X - 1, d.Y, d.Z}}
	if err := p.Fill(sub, make([]float32, sub.Ext.Voxels())); err == nil {
		t.Error("sub-page region accepted")
	}
}
