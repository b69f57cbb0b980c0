// Package render implements the ray-casting map kernel: the CUDA-kernel
// equivalent of §3.2 of the paper. Rays are generated per pixel over a
// brick's screen footprint in 16×16 thread blocks, intersected against the
// brick's bounding box (non-intersecting rays emit nothing), marched at
// fixed increments with trilinear 3D-texture sampling and a 1D transfer
// function, accumulated front to back with early ray termination, and
// emitted as a homogeneous fragment list per thread — at most one fragment
// per convex brick, one per traversal span under non-convex partitions.
package render

import (
	"fmt"
	"math"
	"sync"

	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// BlockDim is the paper's 16×16 thread-block size.
const BlockDim = 16

// Params configures the ray caster.
type Params struct {
	// TF is the 1D transfer function (required).
	TF *transfer.Func
	// StepVoxels is the marching step in voxel units (the paper uses
	// fixed increments; 1.0 is the classic one-sample-per-voxel rate).
	StepVoxels float32
	// TerminationAlpha is the early-ray-termination threshold.
	TerminationAlpha float32
	// Shading enables Levoy-style gradient (central-difference) diffuse
	// shading of contributing samples; it costs six extra texture
	// fetches per shaded sample, which the cost model charges.
	Shading bool
	// Light is the world-space directional light used when Shading is
	// set; zero means the default oblique light.
	Light vec.V3
	// NoEmptySkip disables macrocell empty-space skipping: the ray
	// marches every lattice sample like the original §3.2 kernel.
	// Skipping is bit-identical (every skipped sample has transfer-
	// function alpha exactly 0), so this exists for A/B benchmarking and
	// as an escape hatch, not for correctness.
	NoEmptySkip bool

	// Prepared by Prepare(): per-Params constants hoisted out of the
	// per-ray and per-sample paths. Zero-value Params still work — the
	// samplers call Prepare lazily — but kernels prepare once up front.
	// The prep* fields snapshot the inputs the constants were derived
	// from, so mutating a prepared Params re-derives instead of silently
	// using stale constants.
	prepared  bool
	prepStep  float32
	prepLight vec.V3
	prepTF    *transfer.Func
	lightNorm vec.V3         // normalised Light (or the default light)
	tfStep    *transfer.Func // opacity-corrected TF when StepVoxels != 1
	// skip is the per-brick occupancy structure resolved by PrepareBrick;
	// CastPixel falls back to the process-wide memo when it is absent or
	// belongs to a different brick's macrocell grid.
	skip *skipGrid
}

// tfStepCache memoises opacity-corrected transfer tables per
// (*transfer.Func, step), so samplers called per pixel with unprepared
// Params don't rebuild the table per ray. Like the rest of the renderer
// it assumes a transfer function's Table is not mutated after first use
// (transfer.Func documents this). The memo is bounded: at the cap a
// single arbitrary entry is evicted (not the whole map), so steady-state
// workloads sitting near the cap keep their hot tables instead of
// rebuilding every one of them after each insert.
var tfStepCache = struct {
	sync.Mutex
	m map[tfStepKey]*transfer.Func
}{m: map[tfStepKey]*transfer.Func{}}

const tfStepCacheMax = 64

type tfStepKey struct {
	tf   *transfer.Func
	step float32
}

func correctedTF(tf *transfer.Func, step float32) *transfer.Func {
	key := tfStepKey{tf: tf, step: step}
	tfStepCache.Lock()
	c, ok := tfStepCache.m[key]
	tfStepCache.Unlock()
	if ok {
		return c
	}
	c = tf.OpacityCorrected(step)
	tfStepCache.Lock()
	if prior, ok := tfStepCache.m[key]; ok {
		c = prior // a concurrent builder won; share its table
	} else {
		if len(tfStepCache.m) >= tfStepCacheMax {
			evictOne(tfStepCache.m)
		}
		tfStepCache.m[key] = c
	}
	tfStepCache.Unlock()
	return c
}

// Prepare returns p with its derived per-Params constants computed: the
// normalised light direction and, for non-unit steps, the transfer
// function with opacity correction folded into its table (replacing a
// math.Pow per sample with nothing). Kernels call it once per brick;
// calling CastPixel directly with unprepared Params still works and
// prepares on the fly (the corrected table is memoised process-wide).
func (p Params) Prepare() Params {
	if p.prepared && p.prepTF == p.TF && p.prepStep == p.StepVoxels && p.prepLight == p.Light {
		return p
	}
	light := p.Light
	if light == (vec.V3{}) {
		light = vec.New3(0.5, 0.8, 0.6)
	}
	p.lightNorm = light.Norm()
	p.tfStep = nil
	p.skip = nil // per-brick; re-resolved by PrepareBrick or per ray
	if p.TF != nil && p.StepVoxels > 0 && p.StepVoxels != 1 {
		p.tfStep = correctedTF(p.TF, p.StepVoxels)
	}
	p.prepared = true
	p.prepTF, p.prepStep, p.prepLight = p.TF, p.StepVoxels, p.Light
	return p
}

// PrepareBrick returns p prepared (see Prepare) with the empty-space
// structure for bd's macrocell grid resolved, hoisting the occupancy-memo
// lookup out of the per-ray path. Kernels call it once per brick;
// CastPixel called with plain prepared Params resolves the structure
// per ray through the process-wide memo instead.
func (p Params) PrepareBrick(bd *volume.BrickData) Params {
	p = p.Prepare()
	p.skip = resolveSkip(&p, bd)
	return p
}

// resolveSkip returns the skip grid for bd under p, or nil when skipping
// is disabled, impossible (no macrocells, nil TF), or useless (no cell is
// skippable).
func resolveSkip(p *Params, bd *volume.BrickData) *skipGrid {
	if p.NoEmptySkip || p.TF == nil {
		return nil
	}
	mc := bd.Cells()
	if mc == nil {
		return nil
	}
	if p.skip != nil && p.skip.mc == mc {
		return p.skip
	}
	return occupancyFor(mc, p.TF)
}

// lookupTF returns the transfer function the sampler should use: the
// opacity-corrected table for non-unit steps, else the original.
func (p *Params) lookupTF() *transfer.Func {
	if p.tfStep != nil {
		return p.tfStep
	}
	return p.TF
}

// shadeAmbient and shadeDiffuse weight the two lighting terms.
const (
	shadeAmbient = 0.35
	shadeDiffuse = 0.65
)

// DefaultParams returns the canonical settings used by the evaluation.
func DefaultParams(tf *transfer.Func) Params {
	return Params{TF: tf, StepVoxels: 1.0, TerminationAlpha: 0.98}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.TF == nil {
		return fmt.Errorf("render: nil transfer function")
	}
	if p.StepVoxels <= 0 {
		return fmt.Errorf("render: non-positive step %v", p.StepVoxels)
	}
	if p.TerminationAlpha <= 0 || p.TerminationAlpha > 1 {
		return fmt.Errorf("render: termination alpha %v outside (0,1]", p.TerminationAlpha)
	}
	return nil
}

// SampleStats counts one pixel's sampling work: texture samples actually
// taken, samples the empty-space DDA proved invisible and skipped (the
// dense path would have taken Samples + Skipped), and macrocells
// traversed (charged by the cost model at Spec.CellRate).
type SampleStats struct {
	Samples int64
	Skipped int64
	Cells   int64
}

// CastPixel adapts CastRay to the classic single-fragment contract:
// the brick's fragment for pixel (px,py), or a placeholder when the ray
// contributed nothing. Convex bricks yield at most one fragment per
// ray, so nothing is lost in the adaptation.
func CastPixel(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int) (composite.Fragment, SampleStats) {
	return SampleOne(CastRay, cam, sp, bd, prm, px, py)
}

// CastRay marches the ray for pixel (px,py) through the brick core,
// emits the accumulated fragment (nothing when the ray misses or picks
// up no opacity), and returns the sampling work. The sample positions
// lie on a per-ray global lattice t = (k+0.5)·step, so a ray split
// across bricks takes exactly the same samples a monolithic traversal
// would — the brick-count invariance the tests verify.
//
// When the brick carries a macrocell grid (and Params.NoEmptySkip is
// unset), the inner loop is a two-level DDA: macrocells along the ray
// are tested against the transfer function's occupancy table, and runs
// of lattice indices inside provably-invisible cells advance k directly
// without fetching. Skipped samples all have TF alpha exactly 0, and the
// lattice itself never moves, so the accumulated fragment — and with it
// the image — is bit-identical to the dense march (DESIGN.md §8).
func CastRay(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int, emit func(composite.Fragment)) SampleStats {
	var st SampleStats
	key := int32(py*cam.Width + px)
	ray := cam.Ray(px, py)
	t0, t1, ok := bd.Brick.Bounds.Intersect(ray)
	if !ok || t1 <= 0 {
		return st
	}
	if t0 < 0 {
		t0 = 0
	}
	step := sp.VoxelSize() * prm.StepVoxels
	// First lattice index k with (k+0.5)·step >= t0.
	k := int64(math.Ceil(float64(t0)/float64(step) - 0.5))
	if k < 0 {
		k = 0
	}
	// Per-Params constants (normalised light, opacity-corrected transfer
	// table for non-unit steps) are hoisted out of the per-ray path;
	// kernels prepare once per brick (PrepareBrick also resolves the
	// empty-space structure so no memo lookup happens per ray).
	prm = prm.Prepare()
	tf := prm.lookupTF()
	skip := resolveSkip(&prm, bd)
	if skip != nil && !skip.any {
		skip = nil
	}
	// Idealised voxel-space ray for macrocell exit planes. Sample
	// positions are always computed through the exact per-sample
	// expression below; this affine form only bounds how far a run of
	// samples stays inside one cell, and its float deviation from the
	// exact positions (well under half a voxel) is absorbed by the
	// macrocells' one-voxel-per-face dilation, which covers the trilinear
	// footprint of any position up to half a voxel outside the cell.
	var vorg, vdir [3]float32
	kEnd := int64(0)
	if skip != nil {
		inv := 1 / sp.VoxelSize()
		c0 := sp.WorldToVoxel(vec.V3{})
		vorg = [3]float32{ray.Origin.X*inv + c0.X, ray.Origin.Y*inv + c0.Y, ray.Origin.Z*inv + c0.Z}
		vdir = [3]float32{ray.Dir.X * inv, ray.Dir.Y * inv, ray.Dir.Z * inv}
		// kEnd is the first lattice index past the brick under the exact
		// per-sample float32 comparison the dense loop uses; skips clamp
		// to it so every skipped index is one the dense path would take.
		kEnd = int64(math.Ceil(float64(t1)/float64(step) - 0.5))
		if kEnd < k {
			kEnd = k
		}
		for kEnd > k && (float32(kEnd-1)+0.5)*step >= t1 {
			kEnd--
		}
		for (float32(kEnd)+0.5)*step < t1 {
			kEnd++
		}
	}
	lastCell := -1
	// occupiedUntil gates reclassification: while t is below the current
	// occupied cell's exit, samples march densely on one comparison
	// instead of a full cell lookup. Purely an optimisation — dense
	// marching is always correct, so a misjudged exit (float slack) only
	// means classifying a sample early or late, never skipping it.
	occupiedUntil := float32(-1)

	acc := vec.V4{}
	var sten volume.Stencil
	// entry < 0 marks "no contributing sample yet"; t is never negative.
	entry := float32(-1)
	for {
		t := (float32(k) + 0.5) * step
		if t >= t1 {
			break
		}
		pos := sp.WorldToVoxel(ray.At(t))
		if skip != nil && t >= occupiedUntil {
			mc := skip.mc
			cx := clampCell((int(pos.X)-mc.Org[0])>>volume.MacrocellShift, mc.Cells.X)
			cy := clampCell((int(pos.Y)-mc.Org[1])>>volume.MacrocellShift, mc.Cells.Y)
			cz := clampCell((int(pos.Z)-mc.Org[2])>>volume.MacrocellShift, mc.Cells.Z)
			ci := mc.CellIndex(cx, cy, cz)
			if ci != lastCell {
				lastCell = ci
				st.Cells++
			}
			if skip.empty[ci] {
				// Leap to the first lattice index at or beyond the cell's
				// exit, clamped to kEnd. Every index in [k, k2) is a
				// sample the dense path would take, whose TF alpha is
				// exactly 0, so skipping them changes no accumulated bit.
				texit := cellExitT(mc, cx, cy, cz, vorg, vdir)
				k2 := k + 1
				if e := float64(texit)/float64(step) - 0.5; e > float64(k2) {
					if e >= float64(kEnd) {
						k2 = kEnd
					} else {
						k2 = int64(math.Ceil(e))
					}
				}
				st.Skipped += k2 - k
				k = k2
				continue
			}
			occupiedUntil = cellExitT(mc, cx, cy, cz, vorg, vdir)
		}
		// Shaded marches keep the fetch's sampler state for the gradient
		// stencil; unshaded marches take the plain fetch.
		var s float32
		if prm.Shading {
			s = bd.SampleStencil(&sten, pos.X, pos.Y, pos.Z)
		} else {
			s = bd.Sample(pos.X, pos.Y, pos.Z)
		}
		st.Samples++
		c := tf.Lookup(s)
		if c.W > 0 {
			if entry < 0 {
				entry = t
			}
			if prm.Shading {
				shade := shadeAt(bd, &sten, prm.lightNorm)
				st.Samples += 6
				c.X *= shade
				c.Y *= shade
				c.Z *= shade
			}
			a := c.W
			// Premultiply and accumulate front to back.
			acc = composite.Under(acc, vec.V4{X: c.X * a, Y: c.Y * a, Z: c.Z * a, W: a})
			if acc.W >= prm.TerminationAlpha {
				break
			}
		}
		k++
	}
	if acc.W == 0 {
		return st
	}
	// Depth is the brick entry point along the ray: fragments of one ray
	// across disjoint bricks sort correctly by it.
	if entry < 0 {
		entry = t0
	}
	emit(composite.Fragment{
		Key: key, R: acc.X, G: acc.Y, B: acc.Z, A: acc.W, Depth: entry,
	})
	return st
}

// clampCell clamps a cell coordinate into [0, n-1]; sample positions sit
// a float rounding error outside the grid at region boundaries.
func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// cellExitT returns the ray parameter at which the idealised voxel-space
// ray leaves macrocell (cx,cy,cz): the nearest forward crossing of the
// cell's exit planes. Axes the ray is parallel to never exit.
func cellExitT(mc *volume.Macrocells, cx, cy, cz int, vorg, vdir [3]float32) float32 {
	cell := [3]int{cx, cy, cz}
	texit := float32(math.Inf(1))
	for a := 0; a < 3; a++ {
		d := vdir[a]
		if d == 0 {
			continue
		}
		boundary := cell[a] << volume.MacrocellShift
		if d > 0 {
			boundary += volume.MacrocellEdge
		}
		tb := (float32(mc.Org[a]+boundary) - vorg[a]) / d
		if tb < texit {
			texit = tb
		}
	}
	return texit
}

// shadeAt evaluates Levoy-style diffuse shading at the sample s holds: a
// central-difference gradient (six texture fetches, fused into one
// stencil by BrickData.Gradient) gives the surface normal; the return
// value scales the sample color.
func shadeAt(bd *volume.BrickData, s *volume.Stencil, light vec.V3) float32 {
	g := bd.Gradient(s)
	l := g.Len()
	if l < 1e-6 {
		return 1 // homogeneous region: no surface to shade
	}
	// g.Scale(-1).Norm() without its second square root: (-g)·(-g) is
	// g·g bit for bit, so Norm would recompute exactly l.
	n := g.Scale(-1).Scale(1 / l)
	diffuse := n.Dot(light)
	if diffuse < 0 {
		diffuse = -diffuse // two-sided shading for semi-transparent media
	}
	return shadeAmbient + shadeDiffuse*diffuse
}
