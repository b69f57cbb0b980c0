package volume

import (
	"math"

	"gvmr/internal/vec"
)

// Stencil is the sampler state one shaded sample shares between its
// classification fetch and the six fetches of its central-difference
// gradient. SampleStencil fills it; Gradient reads it. It lives on the
// caller's stack: nothing is cached on the BrickData, so concurrent
// sampling of one brick stays race-free.
//
// The fused stencil is bit-identical to seven independent Sample calls
// by construction. Every fetch keeps its own arithmetic — its own
// float32 coordinate (pos±1, then minus the ghost origin), float64
// floor and fraction, clamp, and x→y→z lerps in the a+(b-a)*f form — and
// a value is shared between fetches only when it is the same operation
// on the same operands (DESIGN.md §8, "Fused shading stencil").
type Stencil struct {
	px, py, pz float32 // volume voxel-space position of the centre
	fl         [3]int  // centre floor(coordinate-0.5) per axis, unclamped
	f          [3]float32
	// Centre x-row lerps (c<y><z>) and y-lerps at z0 and z0+1.
	c00, c10, c01, c11 float32
	c0, c1             float32
}

// sampler returns the brick's sampling backing and ghost-origin floats:
// the values initSampler hoisted, or, for bricks built as bare literals,
// the same values derived per call without writing them back.
func (bd *BrickData) sampler() (data []float32, full Dims, r Region, ox, oy, oz float32) {
	if bd.smpData != nil {
		return bd.smpData, bd.smpDims, bd.smpReg, bd.orgX, bd.orgY, bd.orgZ
	}
	o := bd.Brick.Ghost.Org
	ox, oy, oz = float32(o[0]), float32(o[1]), float32(o[2])
	if bd.full != nil {
		return bd.full, bd.fullDims, bd.Brick.Ghost, ox, oy, oz
	}
	return bd.Data, bd.Brick.Ghost.Ext, Region{Ext: bd.Brick.Ghost.Ext}, ox, oy, oz
}

// SampleStencil returns exactly what Sample(px, py, pz) returns and
// records the fetch's axis state and lerps in s for a following
// Gradient call. The arithmetic is trilinearAt's, operation for
// operation.
func (bd *BrickData) SampleStencil(s *Stencil, px, py, pz float32) float32 {
	data, full, r, ox, oy, oz := bd.sampler()
	x0f, fx := floorFrac(px - ox)
	y0f, fy := floorFrac(py - oy)
	z0f, fz := floorFrac(pz - oz)
	x0 := clampIdx(x0f, r.Ext.X) + r.Org[0]
	y0 := clampIdx(y0f, r.Ext.Y) + r.Org[1]
	z0 := clampIdx(z0f, r.Ext.Z) + r.Org[2]
	x1 := clampIdx(x0f+1, r.Ext.X) + r.Org[0]
	y1 := clampIdx(y0f+1, r.Ext.Y) + r.Org[1]
	z1 := clampIdx(z0f+1, r.Ext.Z) + r.Org[2]
	row := full.X
	slab := full.X * full.Y
	c00 := lerp(data[z0*slab+y0*row+x0], data[z0*slab+y0*row+x1], fx)
	c10 := lerp(data[z0*slab+y1*row+x0], data[z0*slab+y1*row+x1], fx)
	c01 := lerp(data[z1*slab+y0*row+x0], data[z1*slab+y0*row+x1], fx)
	c11 := lerp(data[z1*slab+y1*row+x0], data[z1*slab+y1*row+x1], fx)
	c0 := lerp(c00, c10, fy)
	c1 := lerp(c01, c11, fy)
	// Field by field: a composite-literal store goes through a stack
	// temporary and a block copy on this per-sample path.
	s.px, s.py, s.pz = px, py, pz
	s.fl[0], s.fl[1], s.fl[2] = x0f, y0f, z0f
	s.f[0], s.f[1], s.f[2] = fx, fy, fz
	s.c00, s.c10, s.c01, s.c11, s.c0, s.c1 = c00, c10, c01, c11, c0, c1
	return lerp(c0, c1, fz)
}

// Gradient returns the central-difference gradient at the position s
// was sampled at: (Sample(x+1,y,z) - Sample(x-1,y,z), ...) for the y and
// z axes likewise, bit for bit, where s was filled by SampleStencil on
// this brick.
//
// The X± fetches take the centre's y/z axis state; the Y±/Z± fetches
// take its x state. Where every neighbouring fetch's floor is the
// centre's ±1 and the whole 4³ footprint lies inside the region, no
// index clamps, the Y±/Z± fetches reuse the centre's x-row lerps on the
// rows they share, and Z± reuse the centre's y-lerps. Anywhere else — at
// the region boundary, or where float32 pos±1 rounds across an integer
// (pos = 3.4999998 gives floor(pos+1-0.5) = floor(pos-0.5)+2) — each
// fetch is assembled from its own clamped axis state.
func (bd *BrickData) Gradient(s *Stencil) vec.V3 {
	data, full, r, ox, oy, oz := bd.sampler()
	xm, fxm := floorFrac((s.px - 1) - ox)
	xp, fxp := floorFrac((s.px + 1) - ox)
	ym, fym := floorFrac((s.py - 1) - oy)
	yp, fyp := floorFrac((s.py + 1) - oy)
	zm, fzm := floorFrac((s.pz - 1) - oz)
	zp, fzp := floorFrac((s.pz + 1) - oz)
	x0, y0, z0 := s.fl[0], s.fl[1], s.fl[2]
	fx, fy, fz := s.f[0], s.f[1], s.f[2]
	row := full.X
	slab := full.X * full.Y

	if !interior(x0, xm, xp, r.Ext.X) || !interior(y0, ym, yp, r.Ext.Y) || !interior(z0, zm, zp, r.Ext.Z) {
		ax := func(fl int, f float32, n, org int) axis {
			return axis{clampIdx(fl, n) + org, clampIdx(fl+1, n) + org, f}
		}
		cx := ax(x0, fx, r.Ext.X, r.Org[0])
		cy := ax(y0, fy, r.Ext.Y, r.Org[1])
		cz := ax(z0, fz, r.Ext.Z, r.Org[2])
		f := func(x, y, z axis) float32 { return fetch(data, row, slab, x, y, z) }
		return vec.V3{
			X: f(ax(xp, fxp, r.Ext.X, r.Org[0]), cy, cz) - f(ax(xm, fxm, r.Ext.X, r.Org[0]), cy, cz),
			Y: f(cx, ax(yp, fyp, r.Ext.Y, r.Org[1]), cz) - f(cx, ax(ym, fym, r.Ext.Y, r.Org[1]), cz),
			Z: f(cx, cy, ax(zp, fzp, r.Ext.Z, r.Org[2])) - f(cx, cy, ax(zm, fzm, r.Ext.Z, r.Org[2])),
		}
	}

	// Clamp-free interior: b indexes corner (x0, y0, z0), and every
	// fetch's corners sit at fixed offsets from it. xRow is the x-row
	// lerp from corner (x0+dx, y0+dy, z0+dz) to its +x neighbour.
	b := (z0+r.Org[2])*slab + (y0+r.Org[1])*row + x0 + r.Org[0]
	xRow := func(dx, dy, dz int, f float32) float32 {
		o := b + dz*slab + dy*row + dx
		return lerp(data[o], data[o+1], f)
	}

	// X± have their own x state and the centre's y/z state.
	xPlus := lerp(
		lerp(xRow(1, 0, 0, fxp), xRow(1, 1, 0, fxp), fy),
		lerp(xRow(1, 0, 1, fxp), xRow(1, 1, 1, fxp), fy), fz)
	xMinus := lerp(
		lerp(xRow(-1, 0, 0, fxm), xRow(-1, 1, 0, fxm), fy),
		lerp(xRow(-1, 0, 1, fxm), xRow(-1, 1, 1, fxm), fy), fz)

	// Y+'s rows y0+1 and Y-'s rows y0 are the centre's; y0+2 and y0-1
	// are new, at the centre's x state.
	yPlus := lerp(lerp(s.c10, xRow(0, 2, 0, fx), fyp), lerp(s.c11, xRow(0, 2, 1, fx), fyp), fz)
	yMinus := lerp(lerp(xRow(0, -1, 0, fx), s.c00, fym), lerp(xRow(0, -1, 1, fx), s.c01, fym), fz)

	// Z+'s plane z0+1 and Z-'s plane z0 are the centre's y-lerps c1, c0.
	zPlus := lerp(s.c1, lerp(xRow(0, 0, 2, fx), xRow(0, 1, 2, fx), fy), fzp)
	zMinus := lerp(lerp(xRow(0, 0, -1, fx), xRow(0, 1, -1, fx), fy), s.c0, fzm)

	return vec.V3{X: xPlus - xMinus, Y: yPlus - yMinus, Z: zPlus - zMinus}
}

// interior reports whether one axis of the stencil is clamp-free and
// regular: the minus and plus fetches' floors are the centre's ∓1, and
// indices fl-1 .. fl+2 all lie in [0, n).
func interior(fl, flm, flp, n int) bool {
	return fl >= 1 && fl <= n-3 && flm == fl-1 && flp == fl+1
}

// floorFrac is trilinearAt's per-axis setup for one r-local coordinate:
// the floor of the half-voxel-shifted coordinate and the lerp fraction.
func floorFrac(l float32) (int, float32) {
	q := float64(l) - 0.5
	fl := math.Floor(q)
	return int(fl), float32(q - fl)
}

// lerp is trilinearAt's interpolation step, in its exact operation order.
func lerp(a, b, f float32) float32 { return a + (b-a)*f }

// axis is one fetch's clamped, region-offset corner indices along one
// axis and its lerp fraction.
type axis struct {
	i0, i1 int
	f      float32
}

// fetch is trilinearAt's load-and-lerp body for precomputed axis states.
func fetch(data []float32, row, slab int, x, y, z axis) float32 {
	c00 := lerp(data[z.i0*slab+y.i0*row+x.i0], data[z.i0*slab+y.i0*row+x.i1], x.f)
	c10 := lerp(data[z.i0*slab+y.i1*row+x.i0], data[z.i0*slab+y.i1*row+x.i1], x.f)
	c01 := lerp(data[z.i1*slab+y.i0*row+x.i0], data[z.i1*slab+y.i0*row+x.i1], x.f)
	c11 := lerp(data[z.i1*slab+y.i1*row+x.i0], data[z.i1*slab+y.i1*row+x.i1], x.f)
	return lerp(lerp(c00, c10, y.f), lerp(c01, c11, y.f), z.f)
}
