package volume

import (
	"fmt"
	"sync"

	"gvmr/internal/vec"
)

// Brick is one piece of a bricked volume: a core region (the voxels this
// brick is responsible for rendering — cores tile the volume exactly) plus
// a ghost region padded by one voxel per face (clamped at the volume edge)
// so that trilinear samples taken inside the core never read outside the
// ghost data.
type Brick struct {
	ID     int
	Index  [3]int // grid coordinates
	Core   Region
	Ghost  Region
	Bounds vec.AABB // world-space bounds of the core region
}

// Bytes returns the ghost-region storage footprint (what must fit in VRAM).
func (b Brick) Bytes() int64 { return b.Ghost.Ext.Bytes() }

// Grid is a brick decomposition of a volume.
type Grid struct {
	VolDims Dims
	Space   Space
	Counts  [3]int
	Bricks  []Brick
}

// NumBricks returns the total brick count.
func (g *Grid) NumBricks() int { return len(g.Bricks) }

// MaxBrickBytes returns the largest ghost-region footprint in the grid.
func (g *Grid) MaxBrickBytes() int64 {
	var m int64
	for _, b := range g.Bricks {
		if n := b.Bytes(); n > m {
			m = n
		}
	}
	return m
}

// axisSplit returns the boundary of span i of n near-equal splits of length.
func axisSplit(length, n, i int) int { return length * i / n }

// MakeGrid decomposes a volume into counts[0]×counts[1]×counts[2] bricks
// with near-equal core extents and one-voxel ghost layers.
func MakeGrid(d Dims, counts [3]int) (*Grid, error) {
	dims := [3]int{d.X, d.Y, d.Z}
	for a := 0; a < 3; a++ {
		if counts[a] < 1 || counts[a] > dims[a] {
			return nil, fmt.Errorf("volume: brick count %v invalid for dims %v", counts, d)
		}
	}
	sp := NewSpace(d)
	g := &Grid{VolDims: d, Space: sp, Counts: counts}
	id := 0
	for kz := 0; kz < counts[2]; kz++ {
		for ky := 0; ky < counts[1]; ky++ {
			for kx := 0; kx < counts[0]; kx++ {
				idx := [3]int{kx, ky, kz}
				var org, end [3]int
				for a := 0; a < 3; a++ {
					org[a] = axisSplit(dims[a], counts[a], idx[a])
					end[a] = axisSplit(dims[a], counts[a], idx[a]+1)
				}
				core := Region{
					Org: org,
					Ext: Dims{end[0] - org[0], end[1] - org[1], end[2] - org[2]},
				}
				var gorg, gend [3]int
				for a := 0; a < 3; a++ {
					gorg[a] = max(0, org[a]-1)
					gend[a] = min(dims[a], end[a]+1)
				}
				ghost := Region{
					Org: gorg,
					Ext: Dims{gend[0] - gorg[0], gend[1] - gorg[1], gend[2] - gorg[2]},
				}
				g.Bricks = append(g.Bricks, Brick{
					ID:     id,
					Index:  idx,
					Core:   core,
					Ghost:  ghost,
					Bounds: sp.RegionBounds(core),
				})
				id++
			}
		}
	}
	return g, nil
}

// FactorBricks chooses a near-cubic 3D factorisation of n bricks for a
// volume of dims d: among all (a,b,c) with a·b·c == n it minimises the
// aspect ratio of the resulting brick extents, so bricks stay close to
// cubes even for anisotropic volumes such as the 512×512×2048 plume.
func FactorBricks(d Dims, n int) [3]int {
	if n < 1 {
		n = 1
	}
	best := [3]int{1, 1, n}
	bestScore := factorScore(d, best)
	for a := 1; a <= n; a++ {
		if n%a != 0 {
			continue
		}
		rem := n / a
		for b := 1; b <= rem; b++ {
			if rem%b != 0 {
				continue
			}
			c := rem / b
			cand := [3]int{a, b, c}
			if a > d.X || b > d.Y || c > d.Z {
				continue
			}
			if s := factorScore(d, cand); s < bestScore {
				bestScore = s
				best = cand
			}
		}
	}
	return best
}

// factorScore is the max/min aspect ratio of brick extents; lower is better.
func factorScore(d Dims, c [3]int) float64 {
	ex := float64(d.X) / float64(c[0])
	ey := float64(d.Y) / float64(c[1])
	ez := float64(d.Z) / float64(c[2])
	lo := min(ex, min(ey, ez))
	hi := max(ex, max(ey, ez))
	if lo <= 0 {
		return 1e18
	}
	return hi / lo
}

// BrickData is a brick's ghost-region voxel data, materialised for upload
// to a (simulated) GPU 3D texture. It is either copy-backed (Data holds
// the ghost region) or view-backed (full/fullDims reference a dense
// volume, the staging cache's zero-copy path); both sample identically.
type BrickData struct {
	Brick Brick
	Data  []float32 // ghost region, x-fastest; nil when view-backed
	// View backing: the whole volume's data, indexed through the ghost
	// region. Sampling arithmetic is bit-identical to the copied layout.
	full     []float32
	fullDims Dims

	// mc is the macrocell min/max summary used for empty-space skipping:
	// the shared whole-volume grid for view-backed bricks, a private
	// ghost-region grid for copy-backed ones. Constructors install a
	// build function and Cells() runs it at most once, on first use —
	// renders with skipping disabled never pay the build. Nil mcFn and
	// nil mc (literal-built bricks) disable skipping.
	mcOnce sync.Once
	mcFn   func() *Macrocells
	mc     *Macrocells

	// Hoisted sampler state: the backing selection and the ghost origin
	// as floats, precomputed once per brick so Sample is a single
	// trilinearAt call (and the fused shading stencil one set-up) instead
	// of re-deriving them per fetch.
	smpData          []float32
	smpDims          Dims
	smpReg           Region
	orgX, orgY, orgZ float32

	// empty marks a payload-free brick proven invisible before staging
	// (see EmptyBrickData): it carries no voxel data, costs no upload
	// bytes, and its macrocells declare every cell skippable, so the
	// renderer's empty-space leap never asks it for a sample.
	empty bool
}

// initSampler precomputes the backing selection and origin floats Sample
// uses; constructors call it once per brick.
func (bd *BrickData) initSampler() {
	o := bd.Brick.Ghost.Org
	bd.orgX, bd.orgY, bd.orgZ = float32(o[0]), float32(o[1]), float32(o[2])
	if bd.full != nil {
		bd.smpData, bd.smpDims, bd.smpReg = bd.full, bd.fullDims, bd.Brick.Ghost
	} else {
		bd.smpData, bd.smpDims, bd.smpReg = bd.Data, bd.Brick.Ghost.Ext, Region{Ext: bd.Brick.Ghost.Ext}
	}
}

// Cells returns the brick's macrocell summary grid, building it on
// first use (safe for concurrent callers), or nil for bricks
// constructed as bare literals.
func (bd *BrickData) Cells() *Macrocells {
	if bd.mcFn != nil {
		bd.mcOnce.Do(func() { bd.mc = bd.mcFn() })
	}
	return bd.mc
}

// Bytes returns the ghost-region payload size regardless of backing: the
// held data for copy-backed bricks, the ghost extent for views, zero for
// payload-free empty bricks.
func (bd *BrickData) Bytes() int64 {
	if bd.empty {
		return 0
	}
	if bd.Data != nil {
		return int64(len(bd.Data)) * 4
	}
	return bd.Brick.Bytes()
}

// Empty reports whether this is a payload-free brick built by
// EmptyBrickData.
func (bd *BrickData) Empty() bool { return bd.empty }

// EmptyBrickData builds a payload-free BrickData for a brick whose
// samples are all provably within [lo, hi] and whose transfer function
// maps that whole range to zero opacity. It carries the standard
// macrocell grid shape for the ghost region — the renderer's two-level
// DDA computes cell exit planes from real cell geometry, so the grid must
// look normal — but every cell holds the constant range [lo, hi], which
// the occupancy query marks empty. Rays therefore leap the brick without
// ever calling Sample (which has no data to serve and would panic — by
// design: a non-empty query here is an invariant breach, not a rendering
// path).
func EmptyBrickData(b Brick, lo, hi float32) *BrickData {
	cells := macrocellCounts(b.Ghost.Ext)
	n := int(cells.Voxels())
	mc := &Macrocells{
		Org:   b.Ghost.Org,
		Vox:   b.Ghost.Ext,
		Cells: cells,
		Min:   make([]float32, n),
		Max:   make([]float32, n),
	}
	for i := 0; i < n; i++ {
		mc.Min[i], mc.Max[i] = lo, hi
	}
	return &BrickData{Brick: b, mc: mc, empty: true}
}

// FillBrick materialises a brick's ghost region from a source. The
// brick-private macrocell summary (one extra pass over the ghost data,
// far cheaper than producing it) is built lazily by Cells(), so renders
// that never skip never pay for it.
func FillBrick(src Source, b Brick) (*BrickData, error) {
	return fillBrick(b, func(dst []float32) error { return src.Fill(b.Ghost, dst) })
}

// fillBrick builds a copy-backed brick whose ghost data fill writes.
func fillBrick(b Brick, fill func(dst []float32) error) (*BrickData, error) {
	bd := &BrickData{Brick: b, Data: make([]float32, b.Ghost.Ext.Voxels())}
	if err := fill(bd.Data); err != nil {
		return nil, err
	}
	bd.mcFn = func() *Macrocells { return BuildMacrocells(bd.Data, b.Ghost.Ext, b.Ghost.Org) }
	bd.initSampler()
	return bd, nil
}

// ViewBrick returns a BrickData that samples the brick's ghost region
// directly out of a dense volume without copying it. All views of one
// volume share its memoised whole-volume macrocell grid, built on the
// first Cells() call across all of them.
func ViewBrick(v *Volume, b Brick) *BrickData {
	bd := &BrickData{Brick: b, full: v.Data, fullDims: v.Dims, mcFn: v.Macrocells}
	bd.initSampler()
	return bd
}

// StageBrick materialises a brick's ghost region from a source like
// FillBrick, but serves a zero-copy view when the source is backed by a
// dense volume — a staging-cached source (materialising it on first use)
// or an in-memory VolumeSource. The render path stages bricks through
// this: with the cache warm, staging allocates and copies nothing. If
// the cache budget is saturated by in-flight work, it falls back to the
// lazy per-brick fill.
func StageBrick(src Source, b Brick) (*BrickData, error) {
	switch s := src.(type) {
	case *CachedSource:
		v, ok, err := s.cache.volumeFor(s.src)
		if err != nil {
			return nil, err
		}
		if !ok {
			return FillBrick(s.src, b)
		}
		return viewBrickChecked(v, b)
	case *VolumeSource:
		return viewBrickChecked(s.V, b)
	}
	return FillBrick(src, b)
}

// viewBrickChecked validates the ghost region against the volume before
// building a view, matching the stage-time error FillBrick would have
// returned (instead of an index panic at sample time).
func viewBrickChecked(v *Volume, b Brick) (*BrickData, error) {
	if err := checkRegion(v.Dims, b.Ghost, int(b.Ghost.Ext.Voxels())); err != nil {
		return nil, err
	}
	return ViewBrick(v, b), nil
}

// Sample trilinearly interpolates at the continuous *volume* voxel-space
// position (px,py,pz). For positions inside the brick core this returns
// exactly the same value as Volume.Sample on the full volume — the ghost
// layer guarantees it (see tests). The backing selection and ghost-origin
// floats are hoisted into initSampler by the constructors, so the hot
// path (once per sample of an unshaded march; shaded marches use
// SampleStencil and Gradient) is one trilinearAt call. Bricks built as
// bare literals take the slow branch, which derives the same values per
// call instead of caching them — Sample must stay write-free so
// concurrent sampling is race-free on any brick.
func (bd *BrickData) Sample(px, py, pz float32) float32 {
	if bd.smpData == nil {
		o := bd.Brick.Ghost.Org
		lx := px - float32(o[0])
		ly := py - float32(o[1])
		lz := pz - float32(o[2])
		if bd.full != nil {
			return trilinearAt(bd.full, bd.fullDims, bd.Brick.Ghost, lx, ly, lz)
		}
		return trilinearAt(bd.Data, bd.Brick.Ghost.Ext, Region{Ext: bd.Brick.Ghost.Ext}, lx, ly, lz)
	}
	return trilinearAt(bd.smpData, bd.smpDims, bd.smpReg, px-bd.orgX, py-bd.orgY, pz-bd.orgZ)
}
