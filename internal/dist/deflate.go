package dist

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"sync"
)

// wireLevel is the flate level of both columnar stripe codecs (gvmr-cf1
// and gvmr-cf2), measured with BenchmarkCompressStripesV2's stripes —
// skull 128³, 256² image, 4 GPUs, unshaded, five orbit angles × two
// worker halves — encoded as cf2 through the pooled writer on a 2-core
// host (median of three 40-frame runs):
//
//	level        B/frame   encode ms/frame   ratio vs v2 identity
//	9 (best)     230 471   73                2.26
//	6            231 135   21                2.25
//	5            231 873   17                2.24
//	4            233 073   13                2.23
//	3            235 161   11                2.21
//	2            236 189    9.4              2.20
//	1            248 968    5.4              2.09
//	HuffmanOnly  318 845    4.6              1.63
//
// Byte planes are short-range redundant: past level 4 the deeper match
// search buys at most 1.1% of bytes for 1.3-5.6x the encode CPU. Level 1's
// +7% bytes won nothing end to end (serve-cluster, four alternating 20 s
// pairs: 26.2 vs 26.6 frames/s median, two wins each) and raised the
// modelled frame time 0.45%; HuffmanOnly falls under the 2x ratio the
// cluster bench gates on. Any level decodes with the same reader.
const wireLevel = 4

// maxPooledScratch caps the buffers a codec hands back to its pool. The
// largest payload the benchmarks make (one worker carrying a whole 512²
// paper-scale frame) is under 2 MB raw; anything bigger is left to the
// garbage collector rather than pinned in a pool for good.
const maxPooledScratch = 4 << 20

// encoder is one pooled columnar encode. The transform is built in raw,
// zw deflates it into out, and the caller gets a copy of out. zw writes
// only to its own out, so a pooled encoder holds no caller memory.
type encoder struct {
	raw []byte
	zw  *flate.Writer
	out bytes.Buffer
}

var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.zw, _ = flate.NewWriter(&e.out, wireLevel) // a valid level never errors
	return e
}}

// getEncoder takes an encoder from the pool with an empty raw buffer of
// at least rawHint bytes' capacity.
func getEncoder(rawHint int) *encoder {
	e := encoders.Get().(*encoder)
	e.raw = slices.Grow(e.raw[:0], rawHint)
	return e
}

// deflate compresses e.raw, returns e to the pool and returns the
// payload. Reset makes zw equivalent to a fresh flate.NewWriter, so the
// bytes are exactly those a fresh writer at wireLevel produces.
func (e *encoder) deflate() []byte {
	e.out.Reset()
	e.zw.Reset(&e.out)
	_, _ = e.zw.Write(e.raw) // bytes.Buffer writes cannot fail
	_ = e.zw.Close()
	payload := bytes.Clone(e.out.Bytes())
	if cap(e.raw) <= maxPooledScratch && e.out.Cap() <= maxPooledScratch {
		encoders.Put(e)
	}
	return payload
}

// decoder is one pooled columnar decode: zr inflates src into raw
// through the maxBytes limit lim.
type decoder struct {
	src bytes.Reader
	zr  io.ReadCloser // a flate.Resetter
	lim io.LimitedReader
	raw bytes.Buffer
}

var decoders = sync.Pool{New: func() any {
	d := new(decoder)
	d.zr = flate.NewReader(&d.src)
	return d
}}

// inflate decompresses a columnar payload into a pooled decoder's raw
// buffer, refusing to inflate past maxBytes (zip-bomb guard). The caller
// parses d.raw and then calls release; on error the decoder is already
// back in the pool.
func inflate(encoding string, data []byte, maxBytes int64) (*decoder, error) {
	d := decoders.Get().(*decoder)
	d.src.Reset(data)
	_ = d.zr.(flate.Resetter).Reset(&d.src, nil) // never errors
	d.lim = io.LimitedReader{R: d.zr, N: maxBytes + 1}
	d.raw.Reset()
	if _, err := d.raw.ReadFrom(&d.lim); err != nil {
		d.release()
		return nil, fmt.Errorf("dist: %s inflate: %w", encoding, err)
	}
	if int64(d.raw.Len()) > maxBytes {
		d.release()
		return nil, fmt.Errorf("dist: %s payload inflates beyond %d bytes", encoding, maxBytes)
	}
	return d, nil
}

// release drops the decoder's reference to the caller's payload and
// returns it to the pool.
func (d *decoder) release() {
	d.src.Reset(nil)
	if d.raw.Cap() <= maxPooledScratch {
		decoders.Put(d)
	}
}
