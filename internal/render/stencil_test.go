package render

import (
	"math"
	"testing"

	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// oracleShadeAt is the shading CastRay used before the fused stencil:
// six independent Sample calls and a normalising Norm.
func oracleShadeAt(bd *volume.BrickData, pos vec.V3, light vec.V3) float32 {
	const h = 1.0
	g := vec.V3{
		X: bd.Sample(pos.X+h, pos.Y, pos.Z) - bd.Sample(pos.X-h, pos.Y, pos.Z),
		Y: bd.Sample(pos.X, pos.Y+h, pos.Z) - bd.Sample(pos.X, pos.Y-h, pos.Z),
		Z: bd.Sample(pos.X, pos.Y, pos.Z+h) - bd.Sample(pos.X, pos.Y, pos.Z-h),
	}
	if g.Len() < 1e-6 {
		return 1
	}
	diffuse := g.Scale(-1).Norm().Dot(light)
	if diffuse < 0 {
		diffuse = -diffuse
	}
	return shadeAmbient + shadeDiffuse*diffuse
}

// oracleCastRay is CastRay's dense march (every lattice sample, no
// empty-space skipping) shading with oracleShadeAt.
func oracleCastRay(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int) (composite.Fragment, bool, SampleStats) {
	var st SampleStats
	ray := cam.Ray(px, py)
	t0, t1, ok := bd.Brick.Bounds.Intersect(ray)
	if !ok || t1 <= 0 {
		return composite.Fragment{}, false, st
	}
	if t0 < 0 {
		t0 = 0
	}
	step := sp.VoxelSize() * prm.StepVoxels
	k := int64(math.Ceil(float64(t0)/float64(step) - 0.5))
	if k < 0 {
		k = 0
	}
	prm = prm.Prepare()
	tf := prm.lookupTF()
	acc := vec.V4{}
	entry := float32(-1)
	for ; ; k++ {
		t := (float32(k) + 0.5) * step
		if t >= t1 {
			break
		}
		pos := sp.WorldToVoxel(ray.At(t))
		c := tf.Lookup(bd.Sample(pos.X, pos.Y, pos.Z))
		st.Samples++
		if c.W <= 0 {
			continue
		}
		if entry < 0 {
			entry = t
		}
		if prm.Shading {
			shade := oracleShadeAt(bd, pos, prm.lightNorm)
			st.Samples += 6
			c.X *= shade
			c.Y *= shade
			c.Z *= shade
		}
		a := c.W
		acc = composite.Under(acc, vec.V4{X: c.X * a, Y: c.Y * a, Z: c.Z * a, W: a})
		if acc.W >= prm.TerminationAlpha {
			break
		}
	}
	if acc.W == 0 {
		return composite.Fragment{}, false, st
	}
	return composite.Fragment{
		Key: int32(py*cam.Width + px), R: acc.X, G: acc.Y, B: acc.Z, A: acc.W, Depth: entry,
	}, true, st
}

// TestCastRayFusedShadingMatchesOracle: with shading on, CastRay's fused
// stencil and the six-Sample oracle give the same fragments bit for bit
// and the same SampleStats, over every pixel of every brick of a bricked
// skull (copy- and view-backed, two step sizes). With skipping on, the
// fragments still match and the skipped samples account for the rest.
func TestCastRayFusedShadingMatchesOracle(t *testing.T) {
	src, cam, prm := testScene(t, 32, 48)
	prm.Shading = true
	v, err := volume.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := volume.MakeGrid(src.Dims(), [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	var frags int
	for _, b := range g.Bricks {
		copied, err := volume.FillBrick(src, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, bd := range []*volume.BrickData{copied, volume.ViewBrick(v, b)} {
			for _, step := range []float32{1, 0.7} {
				dense := prm
				dense.StepVoxels = step
				dense.NoEmptySkip = true
				skipping := prm
				skipping.StepVoxels = step
				skipping = skipping.PrepareBrick(bd)
				for py := 0; py < cam.Height; py++ {
					for px := 0; px < cam.Width; px++ {
						want, wantOK, wantSt := oracleCastRay(cam, g.Space, bd, dense, px, py)
						var got []composite.Fragment
						gotSt := CastRay(cam, g.Space, bd, dense, px, py, func(f composite.Fragment) { got = append(got, f) })
						if gotSt != wantSt {
							t.Fatalf("brick %d step %v pixel (%d,%d): stats %+v, oracle %+v", b.ID, step, px, py, gotSt, wantSt)
						}
						if !sameFragments(got, want, wantOK) {
							t.Fatalf("brick %d step %v pixel (%d,%d): fragments %+v, oracle %+v", b.ID, step, px, py, got, want)
						}
						got = got[:0]
						skipSt := CastRay(cam, g.Space, bd, skipping, px, py, func(f composite.Fragment) { got = append(got, f) })
						if !sameFragments(got, want, wantOK) {
							t.Fatalf("brick %d step %v pixel (%d,%d) with skipping: fragments %+v, oracle %+v", b.ID, step, px, py, got, want)
						}
						if skipSt.Samples+skipSt.Skipped != wantSt.Samples {
							t.Fatalf("brick %d step %v pixel (%d,%d) with skipping: %+v does not account for the oracle's %d samples", b.ID, step, px, py, skipSt, wantSt.Samples)
						}
						if wantOK {
							frags++
						}
					}
				}
			}
		}
	}
	if frags == 0 {
		t.Fatal("oracle produced no fragments; the scene shades nothing")
	}
}

// sameFragments reports whether got is exactly the oracle's fragment
// (bit for bit) or, when the oracle emitted nothing, empty.
func sameFragments(got []composite.Fragment, want composite.Fragment, wantOK bool) bool {
	if !wantOK {
		return len(got) == 0
	}
	if len(got) != 1 {
		return false
	}
	g := got[0]
	bits := math.Float32bits
	return g.Key == want.Key && bits(g.R) == bits(want.R) && bits(g.G) == bits(want.G) &&
		bits(g.B) == bits(want.B) && bits(g.A) == bits(want.A) && bits(g.Depth) == bits(want.Depth)
}
