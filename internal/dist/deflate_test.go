package dist

import (
	"bytes"
	"compress/flate"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/volume/dataset"
)

// realFrames maps a skull orbit on the given volume edge and square
// image size over 4 GPUs, unshaded, and returns each frame's stripes as
// two worker halves (bricks 0-1 and 2-3) — the payloads a two-worker
// fleet puts on the wire for one frame.
func realFrames(tb testing.TB, edge, size int, angles []float64) [][2][]core.BrickStripe {
	tb.Helper()
	frames := make([][2][]core.BrickStripe, len(angles))
	for f, deg := range angles {
		opt, err := testJob(tb, dataset.Skull, edge, size, 4, deg, false).Options()
		if err != nil {
			tb.Fatal(err)
		}
		for h := range frames[f] {
			res, err := core.MapBricks(cluster.AC(1), opt, []int{2 * h, 2*h + 1}, 0)
			if err != nil {
				tb.Fatal(err)
			}
			frames[f][h] = res.Stripes
		}
	}
	return frames
}

// paperFrames are the serve-cluster workload's payloads (skull 128³,
// 256² image) at five orbit angles, mapped once per test binary.
var (
	paperOnce   sync.Once
	paperCached [][2][]core.BrickStripe
)

func paperFrames(tb testing.TB) [][2][]core.BrickStripe {
	tb.Helper()
	paperOnce.Do(func() { paperCached = realFrames(tb, 128, 256, []float64{0, 72, 144, 216, 288}) })
	if paperCached == nil {
		tb.Fatal("paper-scale stripes failed to map")
	}
	return paperCached
}

// TestCompressionV2ShrinksRealStripes is the cf2 counterpart of
// TestCompressionShrinksRealStripes, on paper-scale payloads: the
// columnar v2 wire must beat the v2 identity layout by the same 2x the
// cluster bench gates on, and round-trip every payload bit for bit.
func TestCompressionV2ShrinksRealStripes(t *testing.T) {
	identity, compressed := 0, 0
	for f, frame := range paperFrames(t) {
		for h, stripes := range frame {
			id := EncodeStripesV2(stripes)
			cf2 := CompressStripesV2(stripes)
			identity += len(id)
			compressed += len(cf2)
			back, err := DecompressStripesV2(cf2, int64(len(id))+1024)
			if err != nil {
				t.Fatalf("frame %d half %d: %v", f, h, err)
			}
			if !stripesBitEqual(stripes, back) {
				t.Fatalf("frame %d half %d: real stripes changed bits over the cf2 wire", f, h)
			}
		}
	}
	if identity == 0 {
		t.Fatal("no fragments at any angle")
	}
	ratio := float64(identity) / float64(compressed)
	t.Logf("cf2 wire: %d -> %d bytes (%.2fx)", identity, compressed, ratio)
	if ratio < 2 {
		t.Errorf("cf2 payloads %d bytes vs v2 identity %d: %.2fx < 2x", compressed, identity, ratio)
	}
}

// freshDeflate is the reference the pool must reproduce: a brand-new
// writer at wireLevel.
func freshDeflate(t *testing.T, raw []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, wireLevel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// inflated returns the raw columnar transform inside a payload.
func inflated(t *testing.T, payload []byte) []byte {
	t.Helper()
	d, err := inflate(EncodingColumnar2, payload, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer d.release()
	return bytes.Clone(d.raw.Bytes())
}

// smallFrames are distinct real payloads small enough for -race loops.
func smallFrames(t *testing.T) [][]core.BrickStripe {
	t.Helper()
	var payloads [][]core.BrickStripe
	for _, frame := range realFrames(t, 32, 64, []float64{0, 40, 80, 120}) {
		payloads = append(payloads, frame[0], frame[1])
	}
	return payloads
}

// TestPooledEncodeMatchesFreshWriter: a writer taken from the pool and
// Reset onto a new payload emits exactly the bytes a fresh
// flate.NewWriter at the same level does — across reuse, both codecs,
// and payloads of different sizes one after another.
func TestPooledEncodeMatchesFreshWriter(t *testing.T) {
	payloads := append(smallFrames(t), listStripes(), nil)
	for round := 0; round < 3; round++ {
		for i, stripes := range payloads {
			for _, enc := range []struct {
				name     string
				compress func([]core.BrickStripe) []byte
			}{{EncodingColumnar, CompressStripes}, {EncodingColumnar2, CompressStripesV2}} {
				got := enc.compress(stripes)
				if want := freshDeflate(t, inflated(t, got)); !bytes.Equal(got, want) {
					t.Fatalf("round %d payload %d %s: pooled writer emitted %d bytes, fresh writer %d",
						round, i, enc.name, len(got), len(want))
				}
			}
		}
	}
}

// TestPooledCodecsConcurrent: goroutines sharing the pools each encode
// and decode their own payload; every payload round-trips bit-equal and
// is byte-identical to its single-threaded encoding, so no encode ever
// saw another's scratch or writer state.
func TestPooledCodecsConcurrent(t *testing.T) {
	payloads := smallFrames(t)
	want := make([][]byte, len(payloads))
	for i, s := range payloads {
		want[i] = CompressStripesV2(s)
		for j := 0; j < i; j++ {
			if bytes.Equal(want[i], want[j]) {
				t.Fatalf("payloads %d and %d encode identically; the test needs distinct inputs", i, j)
			}
		}
	}
	const rounds = 8
	errs := make(chan error, len(payloads))
	var wg sync.WaitGroup
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := CompressStripesV2(payloads[i])
				if !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("payload %d round %d: bytes differ from its own encoding", i, r)
					return
				}
				back, err := DecompressStripesV2(got, 1<<30)
				if err != nil {
					errs <- fmt.Errorf("payload %d round %d: %v", i, r, err)
					return
				}
				if !stripesBitEqual(payloads[i], back) {
					errs <- fmt.Errorf("payload %d round %d: decoded stripes changed bits", i, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInflateErrorsLeavePoolUsable: a decode that trips the maxBytes
// guard, or reads a corrupt stream, returns its reader to the pool; the
// decodes that follow — likely on that very reader — still succeed.
func TestInflateErrorsLeavePoolUsable(t *testing.T) {
	stripes := listStripes()
	payload := CompressStripesV2(stripes)
	rawLen := int64(len(inflated(t, payload)))
	corrupt := append([]byte(nil), payload...)
	corrupt[0] |= 0x06 // BTYPE 11: a reserved block type
	for i := 0; i < 20; i++ {
		_, err := DecompressStripesV2(payload, rawLen-1)
		if err == nil || !strings.Contains(err.Error(), "inflates beyond") {
			t.Fatalf("round %d: maxBytes guard: err = %v", i, err)
		}
		if _, err := DecompressStripes(corrupt, 1<<20); err == nil {
			t.Fatalf("round %d: corrupt stream decoded", i)
		}
		back, err := DecompressStripesV2(payload, rawLen)
		if err != nil {
			t.Fatalf("round %d: decode after an error: %v", i, err)
		}
		if !stripesBitEqual(stripes, back) {
			t.Fatalf("round %d: decode after an error changed bits", i)
		}
	}
}

// BenchmarkCompressStripesV2 encodes one paper-scale frame (both worker
// halves) per op. ratio is v2 identity bytes over cf2 bytes and wireB/op
// the cf2 bytes of a frame, so a flate level's size/CPU trade reads
// apart from end-to-end noise.
func BenchmarkCompressStripesV2(b *testing.B) {
	frames := paperFrames(b)
	identity, wire := 0, 0
	for _, frame := range frames {
		for _, s := range frame {
			identity += len(EncodeStripesV2(s))
			wire += len(CompressStripesV2(s))
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		for _, s := range frames[i%len(frames)] {
			CompressStripesV2(s)
		}
	}
	b.ReportMetric(float64(identity)/float64(wire), "ratio")
	b.ReportMetric(float64(wire)/float64(len(frames)), "wireB/op")
}

// BenchmarkDecompressStripesV2 decodes one paper-scale frame (both
// worker halves) per op.
func BenchmarkDecompressStripesV2(b *testing.B) {
	frames := paperFrames(b)
	payloads := make([][2][]byte, len(frames))
	identity, wire := 0, 0
	for f, frame := range frames {
		for h, s := range frame {
			payloads[f][h] = CompressStripesV2(s)
			identity += len(EncodeStripesV2(s))
			wire += len(payloads[f][h])
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		for _, p := range payloads[i%len(payloads)] {
			if _, err := DecompressStripesV2(p, 1<<30); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(identity)/float64(wire), "ratio")
}
