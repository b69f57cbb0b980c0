package volume

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// File format v2: a bricked, demand-pageable volume file (DESIGN.md §14).
// Layout:
//
//	offset 0:  "GVMR" magic
//	offset 4:  uint32 version (2)
//	offset 8:  3×uint64 volume dims (x, y, z)
//	offset 32: 3×uint32 brick counts per axis
//	offset 44: uint32 flags (bit 0: per-brick flate compression)
//	offset 48: brick directory, one 24-byte entry per brick in MakeGrid
//	           order (x-fastest): uint64 payload offset, uint64 stored
//	           byte count, float32 min, float32 max of the brick's core
//	offset 48+24N: brick payloads — each brick's *core* region (cores tile
//	           the volume exactly; ghost layers are reassembled from
//	           neighbouring cores at page time), little-endian float32
//	           x-fastest, optionally flate-compressed per brick
//
// All integers are little-endian. The per-brick min/max in the directory
// is what lets the renderer prove a brick invisible under the active
// transfer function without reading its payload at all.
const (
	fileVersion2      = uint32(2)
	v2FlagFlate       = uint32(1)
	v2FixedHeaderSize = 4 + 4 + 3*8 + 3*4 + 4
	v2DirEntrySize    = 8 + 8 + 4 + 4
)

// maxV2Bricks bounds the directory length read from an untrusted header
// (a million bricks of ≥1 voxel each; real files are thousands).
const maxV2Bricks = 1 << 20

// v2Entry is one decoded brick-directory entry.
type v2Entry struct {
	off    uint64  // payload offset from start of file
	stored uint64  // payload byte count as stored (compressed if flate)
	lo, hi float32 // exact min/max of the brick's core samples
}

// v2Header is a decoded v2 header: fixed fields plus the brick directory.
type v2Header struct {
	dims   Dims
	counts [3]int
	flags  uint32
	dir    []v2Entry
}

func (h *v2Header) compressed() bool { return h.flags&v2FlagFlate != 0 }

// headerLen returns the total encoded length: fixed header + directory.
func (h *v2Header) headerLen() int {
	return v2FixedHeaderSize + len(h.dir)*v2DirEntrySize
}

// coreExt returns the core extent of brick index (kx,ky,kz) — the same
// near-equal split MakeGrid uses, so directory validation agrees with the
// grid the pager builds.
func (h *v2Header) coreExt(kx, ky, kz int) Dims {
	d := [3]int{h.dims.X, h.dims.Y, h.dims.Z}
	k := [3]int{kx, ky, kz}
	var e [3]int
	for a := 0; a < 3; a++ {
		e[a] = axisSplit(d[a], h.counts[a], k[a]+1) - axisSplit(d[a], h.counts[a], k[a])
	}
	return Dims{e[0], e[1], e[2]}
}

// coreBytes returns the raw payload size of a core extent, or ok == false
// when the product overflows int64 (possible only with hostile dims).
func coreBytes(e Dims) (int64, bool) {
	vox := int64(e.X) * int64(e.Y)
	if e.Z > 0 && vox > math.MaxInt64/int64(e.Z) {
		return 0, false
	}
	vox *= int64(e.Z)
	if vox > math.MaxInt64/4 {
		return 0, false
	}
	return vox * 4, true
}

// v2MaxStored bounds the stored size of a flate-compressed payload of raw
// bytes: flate's worst case is a small per-block overhead on stored
// (uncompressed) blocks, comfortably under raw/2 + 64 extra.
func v2MaxStored(raw int64) int64 { return raw + raw/2 + 64 }

// decodeV2Header parses and validates a v2 header (fixed fields plus
// brick directory) from the front of data, returning the bytes consumed.
// Every field is treated as hostile: dims and counts are bounded, the
// directory length is capped, stored sizes must be consistent with each
// brick's raw core size, and min > max (or NaN) is rejected. What it
// cannot check without the file — that payload offsets lie inside the
// file — OpenFileV2 checks against the stat size. decode→encode is a
// fixed point (see FuzzVolumeFileV2).
func decodeV2Header(data []byte) (v2Header, int, error) {
	var h v2Header
	if len(data) < v2FixedHeaderSize {
		return h, 0, fmt.Errorf("volume: v2 header truncated: %d bytes", len(data))
	}
	if string(data[:4]) != fileMagic {
		return h, 0, fmt.Errorf("volume: not a GVMR volume file")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != fileVersion2 {
		return h, 0, fmt.Errorf("volume: not a v2 volume (version %d)", v)
	}
	d, err := decodeDims(data[8:])
	if err != nil {
		return h, 0, fmt.Errorf("volume: invalid v2 dims: %w", err)
	}
	h.dims = d
	dims := [3]int{d.X, d.Y, d.Z}
	for a := 0; a < 3; a++ {
		c := binary.LittleEndian.Uint32(data[32+a*4:])
		if c == 0 || int64(c) > int64(dims[a]) || int64(c) > maxV2Bricks {
			return h, 0, fmt.Errorf("volume: brick count %d invalid for axis extent %d", c, dims[a])
		}
		h.counts[a] = int(c)
	}
	n := int64(h.counts[0]) * int64(h.counts[1]) * int64(h.counts[2])
	if n > maxV2Bricks {
		return h, 0, fmt.Errorf("volume: %d bricks exceeds the limit %d", n, maxV2Bricks)
	}
	h.flags = binary.LittleEndian.Uint32(data[44:])
	if h.flags&^v2FlagFlate != 0 {
		return h, 0, fmt.Errorf("volume: unknown v2 flags %#x", h.flags)
	}
	consumed := v2FixedHeaderSize + int(n)*v2DirEntrySize
	if len(data) < consumed {
		return h, 0, fmt.Errorf("volume: v2 directory truncated: %d of %d bytes", len(data), consumed)
	}
	h.dir = make([]v2Entry, n)
	hdrLen := uint64(consumed)
	i := 0
	for kz := 0; kz < h.counts[2]; kz++ {
		for ky := 0; ky < h.counts[1]; ky++ {
			for kx := 0; kx < h.counts[0]; kx++ {
				o := v2FixedHeaderSize + i*v2DirEntrySize
				e := v2Entry{
					off:    binary.LittleEndian.Uint64(data[o:]),
					stored: binary.LittleEndian.Uint64(data[o+8:]),
					lo:     bitsFloat(binary.LittleEndian.Uint32(data[o+16:])),
					hi:     bitsFloat(binary.LittleEndian.Uint32(data[o+20:])),
				}
				raw, ok := coreBytes(h.coreExt(kx, ky, kz))
				if !ok {
					return h, 0, fmt.Errorf("volume: brick %d core size overflows", i)
				}
				if h.compressed() {
					if e.stored == 0 || e.stored > uint64(v2MaxStored(raw)) {
						return h, 0, fmt.Errorf("volume: brick %d stored size %d implausible for %d raw bytes", i, e.stored, raw)
					}
				} else if e.stored != uint64(raw) {
					return h, 0, fmt.Errorf("volume: brick %d stored size %d != %d raw bytes", i, e.stored, raw)
				}
				if e.off < hdrLen || e.off > math.MaxInt64-e.stored {
					return h, 0, fmt.Errorf("volume: brick %d payload offset %d invalid", i, e.off)
				}
				if !(e.lo <= e.hi) { // also rejects NaN
					return h, 0, fmt.Errorf("volume: brick %d min/max [%v, %v] invalid", i, e.lo, e.hi)
				}
				h.dir[i] = e
				i++
			}
		}
	}
	return h, consumed, nil
}

// encodeV2Header is the exact inverse of decodeV2Header.
func encodeV2Header(h v2Header) []byte {
	buf := make([]byte, h.headerLen())
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[4:], fileVersion2)
	binary.LittleEndian.PutUint64(buf[8:], uint64(h.dims.X))
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.dims.Y))
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.dims.Z))
	for a := 0; a < 3; a++ {
		binary.LittleEndian.PutUint32(buf[32+a*4:], uint32(h.counts[a]))
	}
	binary.LittleEndian.PutUint32(buf[44:], h.flags)
	for i, e := range h.dir {
		o := v2FixedHeaderSize + i*v2DirEntrySize
		binary.LittleEndian.PutUint64(buf[o:], e.off)
		binary.LittleEndian.PutUint64(buf[o+8:], e.stored)
		binary.LittleEndian.PutUint32(buf[o+16:], floatBits(e.lo))
		binary.LittleEndian.PutUint32(buf[o+20:], floatBits(e.hi))
	}
	return buf
}

// V2Options configures WriteFileV2.
type V2Options struct {
	// BrickEdge is the target brick edge length in voxels (default 32 —
	// a 128 KiB raw brick, small enough that a tiny staging budget still
	// holds several, large enough that the directory stays negligible).
	BrickEdge int
	// Compress flate-compresses each brick payload independently.
	Compress bool
}

// DefaultBrickEdge is the brick edge WriteFileV2 uses when none is given.
const DefaultBrickEdge = 32

// WriteFileV2 streams a source to a bricked v2 volume file, one brick
// core at a time, recording each brick's exact min/max in the directory.
// Like WriteFile it never materialises the full volume, and the file is
// synced and closed with explicit error checking.
func WriteFileV2(path string, src Source, opts V2Options) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return finishFile(f, writeFileV2(f, src, opts))
}

// writeFileV2 writes the v2 body to f: a placeholder header, the brick
// payloads in directory order, then the real header patched in at 0.
func writeFileV2(f fileWriter, src Source, opts V2Options) error {
	edge := opts.BrickEdge
	if edge <= 0 {
		edge = DefaultBrickEdge
	}
	d := src.Dims()
	var counts [3]int
	for a, dim := range [3]int{d.X, d.Y, d.Z} {
		counts[a] = (dim + edge - 1) / edge
	}
	grid, err := MakeGrid(d, counts)
	if err != nil {
		return err
	}
	h := v2Header{dims: d, counts: counts, dir: make([]v2Entry, grid.NumBricks())}
	if opts.Compress {
		h.flags = v2FlagFlate
	}

	var maxCore int64
	for _, b := range grid.Bricks {
		if n := b.Core.Ext.Voxels(); n > maxCore {
			maxCore = n
		}
	}
	vox := make([]float32, maxCore)
	raw := make([]byte, maxCore*4)
	var zbuf bytes.Buffer
	var zw *flate.Writer
	if opts.Compress {
		if zw, err = flate.NewWriter(&zbuf, flate.DefaultCompression); err != nil {
			return err
		}
	}

	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.Write(make([]byte, h.headerLen())); err != nil {
		return err
	}
	off := uint64(h.headerLen())
	for i, b := range grid.Bricks {
		n := int(b.Core.Ext.Voxels())
		data := vox[:n]
		if err := src.Fill(b.Core, data); err != nil {
			return err
		}
		lo, hi := data[0], data[0]
		for _, s := range data {
			if s < lo {
				lo = s
			} else if s > hi {
				hi = s
			}
		}
		enc := raw[:n*4]
		for j, s := range data {
			binary.LittleEndian.PutUint32(enc[j*4:], floatBits(s))
		}
		if opts.Compress {
			zbuf.Reset()
			zw.Reset(&zbuf)
			if _, err := zw.Write(enc); err != nil {
				return err
			}
			if err := zw.Close(); err != nil {
				return err
			}
			enc = zbuf.Bytes()
		}
		if _, err := w.Write(enc); err != nil {
			return err
		}
		h.dir[i] = v2Entry{off: off, stored: uint64(len(enc)), lo: lo, hi: hi}
		off += uint64(len(enc))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	_, err = f.WriteAt(encodeV2Header(h), 0)
	return err
}

// PagerStats is a snapshot of a PagedSource's demand-paging activity.
type PagerStats struct {
	Bricks        int   `json:"bricks"`          // bricks in the file
	BrickReads    int64 `json:"brick_reads"`     // payloads decoded from disk
	BytesRead     int64 `json:"bytes_read"`      // stored payload bytes read
	Reloads       int64 `json:"reloads"`         // re-reads of a brick already read once: proof of eviction between the two
	Fallbacks     int64 `json:"fallbacks"`       // pages served uncached (budget exhausted by in-flight work)
	SkippedBricks int64 `json:"skipped_bricks"`  // render bricks proven TF-empty by directory min/max: zero disk traffic
	GhostSlabHits int64 `json:"ghost_slab_hits"` // page touches served from a render job's ghost slab instead of being paged
}

// RangedSource is a Source that can bound the sample values of a region
// without reading the data — the hook that lets staging prove a brick
// invisible under a transfer function before paying any disk I/O.
type RangedSource interface {
	Source
	// RegionRange returns a bound [lo, hi] on every sample in r.
	// ok == false means no bound is known.
	RegionRange(r Region) (lo, hi float32, ok bool)
}

// PagedSource reads a v2 volume file by demand-paging individual file
// bricks through a StagingCache: each brick core is a separate cache
// entry, so a render streams volumes far larger than the staging budget,
// with least-recently-used bricks evicted and re-read if touched again.
// It is safe for concurrent use.
type PagedSource struct {
	f         *os.File
	path      string
	hdr       v2Header
	grid      *Grid
	cache     *StagingCache
	keyPrefix string

	mu    sync.Mutex
	reads map[int]int // brick id → times read from disk

	brickReads atomic.Int64
	bytesRead  atomic.Int64
	reloads    atomic.Int64
	fallbacks  atomic.Int64
	skips      atomic.Int64
	slabHits   atomic.Int64
}

// OpenFileV2 opens a bricked v2 volume file. The header and brick
// directory are fully validated at open — including every payload's
// placement inside the actual file size — so truncated or hostile files
// fail here, not mid-render. Pages go through the process-wide staging
// cache by default; SetCache overrides.
func OpenFileV2(path string) (*PagedSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fixed := make([]byte, v2FixedHeaderSize)
	if _, err := io.ReadFull(f, fixed); err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: reading header of %s: %w", path, err)
	}
	if string(fixed[:4]) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("volume: %s is not a GVMR volume file", path)
	}
	if v := binary.LittleEndian.Uint32(fixed[4:]); v != fileVersion2 {
		f.Close()
		return nil, fmt.Errorf("volume: %s is not a v2 volume (version %d)", path, v)
	}
	// Peek just far enough to learn the directory length, then hand the
	// complete header bytes to the one strict decoder.
	n, perr := v2DirLen(fixed)
	if perr != nil {
		f.Close()
		return nil, fmt.Errorf("volume: %s: %w", path, perr)
	}
	full := make([]byte, v2FixedHeaderSize+n*v2DirEntrySize)
	copy(full, fixed)
	if _, err := io.ReadFull(f, full[v2FixedHeaderSize:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: reading brick directory of %s: %w", path, err)
	}
	hdr, _, err := decodeV2Header(full)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: stat %s: %w", path, err)
	}
	size := fi.Size()
	for i, e := range hdr.dir {
		end := e.off + e.stored // overflow ruled out by decodeV2Header
		if end > uint64(size) {
			f.Close()
			return nil, fmt.Errorf("volume: %s: brick %d payload [%d, %d) exceeds file size %d",
				path, i, e.off, end, size)
		}
	}
	grid, err := MakeGrid(hdr.dims, hdr.counts)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: %s: %w", path, err)
	}
	return &PagedSource{
		f:     f,
		path:  path,
		hdr:   hdr,
		grid:  grid,
		cache: Cache,
		// Key pages by path + size + mtime so a rewritten file never
		// serves stale pages out of the shared cache.
		keyPrefix: fmt.Sprintf("pv2|%s|%d|%d|", path, size, fi.ModTime().UnixNano()),
		reads:     map[int]int{},
	}, nil
}

// v2DirLen reads just enough of a fixed header to learn the directory
// entry count, with the same bounds decodeV2Header enforces.
func v2DirLen(fixed []byte) (int, error) {
	var n int64 = 1
	d, err := decodeDims(fixed[8:])
	if err != nil {
		return 0, fmt.Errorf("invalid v2 dims: %w", err)
	}
	dims := [3]int{d.X, d.Y, d.Z}
	for a := 0; a < 3; a++ {
		c := binary.LittleEndian.Uint32(fixed[32+a*4:])
		if c == 0 || int64(c) > int64(dims[a]) || int64(c) > maxV2Bricks {
			return 0, fmt.Errorf("brick count %d invalid for axis extent %d", c, dims[a])
		}
		n *= int64(c)
	}
	if n > maxV2Bricks {
		return 0, fmt.Errorf("%d bricks exceeds the limit %d", n, maxV2Bricks)
	}
	return int(n), nil
}

// Close releases the underlying file.
func (s *PagedSource) Close() error { return s.f.Close() }

// Name implements Source.
func (s *PagedSource) Name() string { return s.path }

// Dims implements Source.
func (s *PagedSource) Dims() Dims { return s.hdr.dims }

// BrickGrid returns the file's brick decomposition.
func (s *PagedSource) BrickGrid() *Grid { return s.grid }

// Compressed reports whether brick payloads are flate-compressed.
func (s *PagedSource) Compressed() bool { return s.hdr.compressed() }

// SetCache routes pages through c instead of the process-wide cache
// (nil, or a cache with no capacity, reads every page straight from
// disk). Call before the first Fill.
func (s *PagedSource) SetCache(c *StagingCache) { s.cache = c }

// Stats returns a snapshot of the pager counters.
func (s *PagedSource) Stats() PagerStats {
	return PagerStats{
		Bricks:        s.grid.NumBricks(),
		BrickReads:    s.brickReads.Load(),
		BytesRead:     s.bytesRead.Load(),
		Reloads:       s.reloads.Load(),
		Fallbacks:     s.fallbacks.Load(),
		SkippedBricks: s.skips.Load(),
		GhostSlabHits: s.slabHits.Load(),
	}
}

// NoteBrickSkip records that a render brick was proven empty from the
// directory min/max alone (a Stager calls it; no disk I/O happened).
func (s *PagedSource) NoteBrickSkip() { s.skips.Add(1) }

// splitRange returns the [i0, i1) range of axis splits (of length into n
// near-equal spans) that overlap the half-open voxel interval [lo, hi).
func splitRange(length, n, lo, hi int) (int, int) {
	i0 := sort.Search(n, func(i int) bool { return axisSplit(length, n, i+1) > lo })
	i1 := sort.Search(n, func(i int) bool { return axisSplit(length, n, i) >= hi })
	return i0, i1
}

// brickRange returns the index ranges of file bricks whose cores overlap r.
func (s *PagedSource) brickRange(r Region) (lo, hi [3]int) {
	d := [3]int{s.hdr.dims.X, s.hdr.dims.Y, s.hdr.dims.Z}
	e := r.End()
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = splitRange(d[a], s.hdr.counts[a], r.Org[a], e[a])
	}
	return lo, hi
}

// brickID returns the directory index of brick (kx,ky,kz).
func (s *PagedSource) brickID(kx, ky, kz int) int {
	return (kz*s.hdr.counts[1]+ky)*s.hdr.counts[0] + kx
}

// RegionRange implements RangedSource: the union of directory min/max
// over every file brick whose core intersects r. Cores tile the volume
// and the renderer's trilinear fetches clamp into the sampled region, so
// this bounds every sample a render can take inside r — without reading
// one payload byte.
func (s *PagedSource) RegionRange(r Region) (lo, hi float32, ok bool) {
	blo, bhi := s.brickRange(r)
	for kz := blo[2]; kz < bhi[2]; kz++ {
		for ky := blo[1]; ky < bhi[1]; ky++ {
			for kx := blo[0]; kx < bhi[0]; kx++ {
				e := s.hdr.dir[s.brickID(kx, ky, kz)]
				if !ok {
					lo, hi, ok = e.lo, e.hi, true
					continue
				}
				if e.lo < lo {
					lo = e.lo
				}
				if e.hi > hi {
					hi = e.hi
				}
			}
		}
	}
	return lo, hi, ok
}

// maxPooledPage caps the payload buffers a page decoder keeps in its
// pool: bricks up to 64³ (1 MiB raw) reuse them, and anything larger is
// left to the garbage collector rather than pinned in the pool for good.
const maxPooledPage = 1 << 20

// pageDecoder is one pooled page read: the stored payload is read into
// stored and, for flate files, zr inflates it through src into raw, with
// probe checking that the stream ends at the core size. A failed decode
// leaves the decoder reusable: Reset makes zr equivalent to a fresh
// flate.NewReader.
type pageDecoder struct {
	stored, raw []byte
	src         bytes.Reader
	zr          io.ReadCloser // a flate.Resetter
	probe       [1]byte
}

var pageDecoders = sync.Pool{New: func() any {
	d := new(pageDecoder)
	d.zr = flate.NewReader(&d.src)
	return d
}}

// readBrickInto reads brick i's payload from disk and decodes it into
// dst (the brick's core voxels). This is the only disk path; everything
// else is served from the staging cache or a job's ghost slabs.
func (s *PagedSource) readBrickInto(i int, dst []float32) error {
	s.mu.Lock()
	s.reads[i]++
	reload := s.reads[i] > 1
	s.mu.Unlock()
	if reload {
		s.reloads.Add(1)
	}
	d := pageDecoders.Get().(*pageDecoder)
	err := d.decode(s, i, dst)
	if cap(d.stored) <= maxPooledPage && cap(d.raw) <= maxPooledPage {
		pageDecoders.Put(d)
	}
	return err
}

// decode reads brick i of s through d's buffers and decodes it into dst.
func (d *pageDecoder) decode(s *PagedSource, i int, dst []float32) error {
	e := s.hdr.dir[i]
	d.stored = slices.Grow(d.stored[:0], int(e.stored))[:e.stored]
	if _, err := s.f.ReadAt(d.stored, int64(e.off)); err != nil {
		return fmt.Errorf("volume: reading brick %d of %s: %w", i, s.path, err)
	}
	s.brickReads.Add(1)
	s.bytesRead.Add(int64(len(d.stored)))
	enc := d.stored
	if s.hdr.compressed() {
		d.raw = slices.Grow(d.raw[:0], len(dst)*4)[:len(dst)*4]
		d.src.Reset(d.stored)
		_ = d.zr.(flate.Resetter).Reset(&d.src, nil) // never errors
		if _, err := io.ReadFull(d.zr, d.raw); err != nil {
			return fmt.Errorf("volume: decompressing brick %d of %s: %w", i, s.path, err)
		}
		// The stream must end exactly at the core size; trailing data
		// means the payload does not match the directory.
		if n, err := d.zr.Read(d.probe[:]); n != 0 || err != io.EOF {
			return fmt.Errorf("volume: brick %d of %s has oversized payload", i, s.path)
		}
		enc = d.raw
	}
	for j := range dst {
		dst[j] = bitsFloat(binary.LittleEndian.Uint32(enc[j*4:]))
	}
	return nil
}

// v2PageSource adapts one file brick to the Source interface so the
// staging cache can materialise and account it like any other entry. Its
// identity (keyPrefix + brick id) embeds the file's size and mtime, so a
// rewritten file can never alias a stale page. The cache only ever
// materialises whole pages, so Fill serves nothing else.
type v2PageSource struct {
	s *PagedSource
	i int
}

func (p *v2PageSource) Name() string { return p.s.keyPrefix + strconv.Itoa(p.i) }
func (p *v2PageSource) Dims() Dims   { return p.s.grid.Bricks[p.i].Core.Ext }

func (p *v2PageSource) Fill(r Region, dst []float32) error {
	d := p.Dims()
	if err := checkRegion(d, r, len(dst)); err != nil {
		return err
	}
	if r != (Region{Ext: d}) {
		return fmt.Errorf("volume: page %d of %s fills only whole, not region %v", p.i, p.s.path, r)
	}
	return p.s.readBrickInto(p.i, dst)
}

// page returns brick i's core as a dense volume, preferably out of the
// staging cache. ok == false from the cache (budget held by in-flight
// work) falls back to an uncached direct read.
func (s *PagedSource) page(i int) (*Volume, error) {
	if c := s.cache; c != nil && c.Capacity() > 0 {
		v, ok, err := c.volumeFor(&v2PageSource{s: s, i: i})
		if err != nil {
			return nil, err
		}
		if ok {
			return v, nil
		}
		s.fallbacks.Add(1)
	}
	d := s.grid.Bricks[i].Core.Ext
	data := make([]float32, d.Voxels())
	if err := s.readBrickInto(i, data); err != nil {
		return nil, err
	}
	return &Volume{Dims: d, Data: data}, nil
}

// Fill implements Source: the requested region is assembled from every
// file brick whose core intersects it, each paged through the staging
// cache. Fills never materialise the whole volume — this is the
// out-of-core path. Fill is the job-free case of fill.
func (s *PagedSource) Fill(r Region, dst []float32) error { return s.fill(r, dst, nil, 0) }

// fill is the one paged fill path. It assembles region r into dst from
// every file brick whose core intersects r. Inside a job (st non-nil,
// staging brick self), a page whose ghost slab st holds for self is
// served from that slab instead of being paged, and every page that is
// paged is offered to st for the job's pending bricks.
func (s *PagedSource) fill(r Region, dst []float32, st *Stager, self int) error {
	if err := checkRegion(s.hdr.dims, r, len(dst)); err != nil {
		return err
	}
	blo, bhi := s.brickRange(r)
	for kz := blo[2]; kz < bhi[2]; kz++ {
		for ky := blo[1]; ky < bhi[1]; ky++ {
			for kx := blo[0]; kx < bhi[0]; kx++ {
				i := s.brickID(kx, ky, kz)
				c := s.grid.Bricks[i].Core
				x, _ := intersect(r, c) // non-empty: brickRange overlaps r
				if slab := st.take(self, i); slab != nil {
					s.slabHits.Add(1)
					copyBox(dst, r, slab, x, x)
					continue
				}
				v, err := s.page(i)
				if err != nil {
					return err
				}
				copyBox(dst, r, v.Data, c, x)
				st.share(i, c, v.Data)
			}
		}
	}
	return nil
}

// VolumeFile is a file-backed volume source that must be closed.
type VolumeFile interface {
	Source
	Close() error
}

// OpenVolume opens a GVMR volume file of either version: flat v1 files
// load through FileSource, bricked v2 files through the demand pager.
func OpenVolume(path string) (VolumeFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 8)
	_, rerr := io.ReadFull(f, hdr)
	cerr := f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("volume: reading header of %s: %w", path, rerr)
	}
	if cerr != nil {
		return nil, cerr
	}
	if string(hdr[:4]) != fileMagic {
		return nil, fmt.Errorf("volume: %s is not a GVMR volume file", path)
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:]); v {
	case fileVersion:
		return OpenFile(path)
	case fileVersion2:
		return OpenFileV2(path)
	default:
		return nil, fmt.Errorf("volume: %s has unsupported version %d", path, v)
	}
}
