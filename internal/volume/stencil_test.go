package volume

import (
	"math"
	"math/rand"
	"testing"

	"gvmr/internal/vec"
)

// naiveGradient is the oracle for BrickData.Gradient: the central
// difference as six independent Sample calls.
func naiveGradient(bd *BrickData, px, py, pz float32) vec.V3 {
	const h = 1.0
	return vec.V3{
		X: bd.Sample(px+h, py, pz) - bd.Sample(px-h, py, pz),
		Y: bd.Sample(px, py+h, pz) - bd.Sample(px, py-h, pz),
		Z: bd.Sample(px, py, pz+h) - bd.Sample(px, py, pz-h),
	}
}

func sameBits(a, b vec.V3) bool {
	return math.Float32bits(a.X) == math.Float32bits(b.X) &&
		math.Float32bits(a.Y) == math.Float32bits(b.Y) &&
		math.Float32bits(a.Z) == math.Float32bits(b.Z)
}

// takesInterior reports whether Gradient serves s on its clamp-free
// shared path (true) or on the per-fetch clamped fallback (false).
func takesInterior(bd *BrickData, s *Stencil) bool {
	_, _, r, ox, oy, oz := bd.sampler()
	p := [3]float32{s.px, s.py, s.pz}
	o := [3]float32{ox, oy, oz}
	n := [3]int{r.Ext.X, r.Ext.Y, r.Ext.Z}
	for a := 0; a < 3; a++ {
		m, _ := floorFrac((p[a] - 1) - o[a])
		pl, _ := floorFrac((p[a] + 1) - o[a])
		if !interior(s.fl[a], m, pl, n[a]) {
			return false
		}
	}
	return true
}

// roundingCrossings are positions whose float32 p+1 rounds up across a
// voxel-centre boundary: floor(p+1-0.5) = floor(p-0.5)+2.
var roundingCrossings = []float32{0.49999994, 1.4999999, 3.4999998, 7.4999995}

// crossingPositions returns the listed crossings, the same pattern one
// to four ulps below 2^k-0.5 for every binade up to the volume edge, and
// both sets offset by each brick origin.
func crossingPositions(g *Grid) []float32 {
	ps := append([]float32(nil), roundingCrossings...)
	for k := 0; k <= 7; k++ {
		p := float32(math.Ldexp(1, k)) - 0.5
		for j := 0; j < 4; j++ {
			p = math.Nextafter32(p, 0)
			ps = append(ps, p)
		}
	}
	base := len(ps)
	for _, b := range g.Bricks {
		for a := 0; a < 3; a++ {
			for _, p := range ps[:base] {
				ps = append(ps, float32(b.Ghost.Org[a])+p)
			}
		}
	}
	return ps
}

func TestRoundingCrossingsCross(t *testing.T) {
	for _, p := range roundingCrossings {
		fl, _ := floorFrac(p)
		flp, _ := floorFrac(p + 1)
		if flp != fl+2 {
			t.Errorf("p=%v: floor(p+1-0.5)=%d, floor(p-0.5)=%d; want a +2 crossing", p, flp, fl)
		}
	}
}

// TestGradientMatchesSixSamples is the bit-identity oracle of the fused
// shading stencil: for a million seeded positions per backing (brick
// interiors, region faces, clamped positions outside the region, and
// the float32 rounding crossings), SampleStencil returns Sample's bits
// and Gradient returns the six-Sample central difference's bits.
func TestGradientMatchesSixSamples(t *testing.T) {
	d := Dims{X: 40, Y: 36, Z: 44}
	v := New(d)
	r := rand.New(rand.NewSource(12))
	for i := range v.Data {
		v.Data[i] = r.Float32()
	}
	g, err := MakeGrid(d, [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	src := NewVolumeSource(v, "stencil-oracle")
	crossings := crossingPositions(g)
	backings := map[string]func(b Brick) *BrickData{
		"view": func(b Brick) *BrickData { return ViewBrick(v, b) },
		"copy": func(b Brick) *BrickData {
			bd, err := FillBrick(src, b)
			if err != nil {
				t.Fatal(err)
			}
			return bd
		},
	}
	const positions = 1_000_000
	for name, mk := range backings {
		bricks := make([]*BrickData, len(g.Bricks))
		for i, b := range g.Bricks {
			bricks[i] = mk(b)
		}
		var shared, fallback, crossed int
		check := func(bd *BrickData, p [3]float32) {
			var s Stencil
			got := bd.SampleStencil(&s, p[0], p[1], p[2])
			if want := bd.Sample(p[0], p[1], p[2]); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s brick %d at %v: SampleStencil %v != Sample %v", name, bd.Brick.ID, p, got, want)
			}
			if takesInterior(bd, &s) {
				shared++
			} else {
				fallback++
			}
			if gv, want := bd.Gradient(&s), naiveGradient(bd, p[0], p[1], p[2]); !sameBits(gv, want) {
				t.Fatalf("%s brick %d at %v: fused gradient %v != six-Sample %v", name, bd.Brick.ID, p, gv, want)
			}
		}
		rr := rand.New(rand.NewSource(1))
		for i := 0; i < positions; i++ {
			bd := bricks[rr.Intn(len(bricks))]
			gh := bd.Brick.Ghost
			var p [3]float32
			for a := 0; a < 3; a++ {
				// Mostly uniform over the ghost region widened by 3 voxels
				// per face (clamped fetches); sometimes a rounding crossing.
				if rr.Intn(8) == 0 {
					p[a] = crossings[rr.Intn(len(crossings))]
				} else {
					lo := float32(gh.Org[a] - 3)
					p[a] = lo + rr.Float32()*float32(gh.End()[a]+3-gh.Org[a]+3)
				}
			}
			check(bd, p)
		}
		// Every crossing on every axis, the other axes at the brick centre.
		for _, bd := range bricks {
			gh := bd.Brick.Ghost
			for a := 0; a < 3; a++ {
				for _, c := range crossings {
					var p [3]float32
					for b := 0; b < 3; b++ {
						p[b] = float32(gh.Org[b]) + float32(gh.Ext.X+gh.Ext.Y+gh.Ext.Z)/6
					}
					p[a] = c
					if fl, _ := floorFrac(c); fl >= gh.Org[a] && fl+2 < gh.End()[a] {
						if flp, _ := floorFrac(c + 1); flp == fl+2 {
							crossed++
						}
					}
					check(bd, p)
				}
			}
		}
		if shared == 0 || fallback == 0 {
			t.Errorf("%s: shared path ran %d times, fallback %d; want both", name, shared, fallback)
		}
		if crossed == 0 {
			t.Errorf("%s: no rounding crossing landed inside a brick", name)
		}
		t.Logf("%s: %d shared, %d fallback, %d in-region crossings", name, shared, fallback, crossed)
	}
}

// TestGradientLiteralBricks covers bricks built as bare literals, whose
// sampler state is derived per call instead of hoisted.
func TestGradientLiteralBricks(t *testing.T) {
	d := Dims{X: 12, Y: 10, Z: 9}
	v := New(d)
	r := rand.New(rand.NewSource(3))
	for i := range v.Data {
		v.Data[i] = r.Float32()
	}
	g, err := MakeGrid(d, [3]int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	b := g.Bricks[1]
	copied, err := FillBrick(NewVolumeSource(v, "literal"), b)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range []*BrickData{
		{Brick: b, Data: copied.Data},
		{Brick: b, full: v.Data, fullDims: d},
	} {
		for i := 0; i < 20000; i++ {
			p := [3]float32{r.Float32() * 14, r.Float32() * 12, r.Float32() * 11}
			var s Stencil
			if got, want := bd.SampleStencil(&s, p[0], p[1], p[2]), bd.Sample(p[0], p[1], p[2]); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("at %v: SampleStencil %v != Sample %v", p, got, want)
			}
			if got, want := bd.Gradient(&s), naiveGradient(bd, p[0], p[1], p[2]); !sameBits(got, want) {
				t.Fatalf("at %v: fused gradient %v != six-Sample %v", p, got, want)
			}
		}
		if bd.smpData != nil {
			t.Fatal("sampling a literal brick wrote hoisted state")
		}
	}
}
