package render

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/gpu"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// testScene builds a small skull scene with a camera fit to it.
func testScene(t *testing.T, n int, imgSize int) (volume.Source, *camera.Camera, Params) {
	t.Helper()
	src, err := dataset.New(dataset.Skull, volume.Cube(n))
	if err != nil {
		t.Fatal(err)
	}
	sp := volume.NewSpace(src.Dims())
	cam, err := camera.Fit(sp.Bounds(), imgSize, imgSize)
	if err != nil {
		t.Fatal(err)
	}
	return src, cam, DefaultParams(transfer.SkullPreset())
}

func wholeBrick(t *testing.T, src volume.Source) (*volume.BrickData, volume.Space) {
	t.Helper()
	g, err := volume.MakeGrid(src.Dims(), [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := volume.FillBrick(src, g.Bricks[0])
	if err != nil {
		t.Fatal(err)
	}
	return bd, g.Space
}

func TestParamsValidate(t *testing.T) {
	tf := transfer.Gray()
	good := DefaultParams(tf)
	if err := good.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := good
	bad.TF = nil
	if bad.Validate() == nil {
		t.Error("nil TF accepted")
	}
	bad = good
	bad.StepVoxels = 0
	if bad.Validate() == nil {
		t.Error("zero step accepted")
	}
	bad = good
	bad.TerminationAlpha = 1.5
	if bad.Validate() == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestMissingRayEmitsPlaceholder(t *testing.T) {
	src, cam, prm := testScene(t, 16, 64)
	bd, sp := wholeBrick(t, src)
	// Corner pixel: ray misses the centered volume under the Fit camera.
	frag, samples := CastPixel(cam, sp, bd, prm, 0, 0)
	if !frag.IsPlaceholder() {
		t.Error("corner ray should emit placeholder")
	}
	if samples != (SampleStats{}) {
		t.Errorf("missing ray did work: %+v", samples)
	}
	if frag.Key != 0 {
		t.Errorf("placeholder key = %d, want pixel index 0", frag.Key)
	}
}

func TestCenterRayHits(t *testing.T) {
	src, cam, prm := testScene(t, 32, 64)
	bd, sp := wholeBrick(t, src)
	frag, samples := CastPixel(cam, sp, bd, prm, 32, 32)
	if frag.IsPlaceholder() {
		t.Fatal("center ray should hit the skull")
	}
	if samples.Samples == 0 {
		t.Error("hit ray took no samples")
	}
	if frag.A <= 0 || frag.A > 1 {
		t.Errorf("alpha = %v", frag.A)
	}
	if frag.Depth <= 0 || math.IsInf(float64(frag.Depth), 0) {
		t.Errorf("depth = %v", frag.Depth)
	}
	// Premultiplied invariants: channel <= alpha (colors in [0,1]).
	if frag.R > frag.A+1e-5 || frag.G > frag.A+1e-5 || frag.B > frag.A+1e-5 {
		t.Errorf("premultiplied channels exceed alpha: %+v", frag)
	}
}

func TestEarlyTerminationReducesSamples(t *testing.T) {
	src, cam, _ := testScene(t, 32, 64)
	bd, sp := wholeBrick(t, src)
	// Opaque transfer function: terminate almost immediately.
	opaque, err := transfer.FromPoints([]transfer.Point{
		{S: 0, C: vec.New4(1, 1, 1, 1)},
		{S: 1, C: vec.New4(1, 1, 1, 1)},
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	translucent := transfer.Gray()
	_, stOpaque := CastPixel(cam, sp, bd, DefaultParams(opaque), 32, 32)
	_, stTrans := CastPixel(cam, sp, bd, DefaultParams(translucent), 32, 32)
	sOpaque, sTrans := stOpaque.Samples, stTrans.Samples
	if sOpaque >= sTrans {
		t.Errorf("opaque TF took %d samples, translucent %d: early termination broken",
			sOpaque, sTrans)
	}
	if sOpaque > 3 {
		t.Errorf("opaque TF should terminate within ~1 sample, took %d", sOpaque)
	}
}

// The fundamental distributed-rendering invariant: per-brick fragments,
// depth-sorted and composited, equal the monolithic reference image.
func TestBrickCountInvariance(t *testing.T) {
	src, cam, prm := testScene(t, 32, 48)
	ref, err := Reference(cam, src, prm, vec.V4{})
	if err != nil {
		t.Fatal(err)
	}
	for _, counts := range [][3]int{{2, 1, 1}, {2, 2, 2}, {3, 2, 1}, {1, 1, 4}} {
		g, err := volume.MakeGrid(src.Dims(), counts)
		if err != nil {
			t.Fatal(err)
		}
		// Gather fragments per pixel across all bricks.
		perPixel := make(map[int32][]composite.Fragment)
		for _, b := range g.Bricks {
			bd, err := volume.FillBrick(src, b)
			if err != nil {
				t.Fatal(err)
			}
			fp, ok := cam.ProjectAABB(b.Bounds)
			if !ok {
				continue
			}
			for py := fp.Y0; py <= fp.Y1; py++ {
				for px := fp.X0; px <= fp.X1; px++ {
					frag, _ := CastPixel(cam, g.Space, bd, prm, px, py)
					if !frag.IsPlaceholder() {
						perPixel[frag.Key] = append(perPixel[frag.Key], frag)
					}
				}
			}
		}
		var worst float64
		for py := 0; py < cam.Height; py++ {
			for px := 0; px < cam.Width; px++ {
				key := int32(py*cam.Width + px)
				got := composite.CompositePixel(perPixel[key], vec.V4{})
				want := ref[key]
				for _, d := range []float32{got.X - want.X, got.Y - want.Y, got.Z - want.Z} {
					if v := math.Abs(float64(d)); v > worst {
						worst = v
					}
				}
			}
		}
		// Early termination cuts rays at slightly different points when a
		// brick boundary intervenes, so allow a small tolerance.
		if worst > 0.03 {
			t.Errorf("bricking %v: worst channel error %.4f vs reference", counts, worst)
		}
	}
}

// Property: with early termination disabled, splitting a ray at a brick
// boundary takes exactly the same lattice samples as the monolithic march.
func TestGlobalLatticeSampleCountProperty(t *testing.T) {
	src, err := dataset.New(dataset.Supernova, volume.Cube(24))
	if err != nil {
		t.Fatal(err)
	}
	sp := volume.NewSpace(src.Dims())
	cam, err := camera.Fit(sp.Bounds(), 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams(transfer.SupernovaPreset())
	prm.TerminationAlpha = 1.0 // never terminate early

	whole, spw := wholeBrick(t, src)
	g, err := volume.MakeGrid(src.Dims(), [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	bricks := make([]*volume.BrickData, 0, 8)
	for _, b := range g.Bricks {
		bd, err := volume.FillBrick(src, b)
		if err != nil {
			t.Fatal(err)
		}
		bricks = append(bricks, bd)
	}
	r := rand.New(rand.NewSource(101))
	f := func() bool {
		px, py := r.Intn(40), r.Intn(40)
		_, st := CastPixel(cam, spw, whole, prm, px, py)
		// Samples + Skipped is the dense-lattice count, which is what the
		// global-lattice property governs (per-brick macrocell grids may
		// skip different spans than the monolithic grid does).
		mono := st.Samples + st.Skipped
		var split int64
		for _, bd := range bricks {
			_, s := CastPixel(cam, g.Space, bd, prm, px, py)
			split += s.Samples + s.Skipped
		}
		// Identical lattices; boundary samples may fall on either side of
		// a brick seam within float error.
		d := mono - split
		if d < 0 {
			d = -d
		}
		return d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKernelCoversFootprintWithPadding(t *testing.T) {
	src, cam, prm := testScene(t, 32, 64)
	bd, sp := wholeBrick(t, src)
	tex := &gpu.Texture3D{Data: bd}
	k := NewKernel(cam, sp, tex, prm)
	if k == nil {
		t.Fatal("on-screen brick produced nil kernel")
	}
	grid := k.Grid()
	if grid.X*BlockDim < k.FP.Width() || grid.Y*BlockDim < k.FP.Height() {
		t.Errorf("grid %v too small for footprint %+v", grid, k.FP)
	}
	if (grid.X-1)*BlockDim >= k.FP.Width() {
		t.Errorf("grid %v overshoots footprint %+v by more than one block", grid, k.FP)
	}
	// Execute all blocks serially and check the offset/count layout: every
	// thread has a (possibly empty) fragment list, every fragment's key is
	// a footprint pixel, and the stats agree with the layout.
	var stats gpu.Stats
	for by := 0; by < grid.Y; by++ {
		for bx := 0; bx < grid.X; bx++ {
			stats.Add(k.RunBlock(bx, by))
		}
	}
	if stats.Threads != int64(k.Threads()) {
		t.Errorf("threads %d != slots %d", stats.Threads, k.Threads())
	}
	// With the convex ray caster each thread emits 0 or 1 fragments, and
	// an empty list still writes one placeholder-sized record, so the
	// emission charge stays one per thread (§3.1.1 cost parity).
	if stats.Emitted != stats.Threads {
		t.Errorf("emitted %d, want one per thread (%d)", stats.Emitted, stats.Threads)
	}
	var frags, hitThreads int64
	lastSlot := -1
	k.ForEachThread(func(slot int, list []composite.Fragment) {
		if slot != lastSlot+1 {
			t.Fatalf("ForEachThread slot %d after %d: not global row-major order", slot, lastSlot)
		}
		lastSlot = slot
		if int32(len(list)) != k.Counts[slot] {
			t.Fatalf("slot %d: list length %d != Counts %d", slot, len(list), k.Counts[slot])
		}
		if len(list) > 0 {
			hitThreads++
		}
		for _, f := range list {
			frags++
			px := int(f.Key) % cam.Width
			py := int(f.Key) / cam.Width
			if px < k.FP.X0 || px > k.FP.X1 || py < k.FP.Y0 || py > k.FP.Y1 {
				t.Fatalf("fragment key (%d,%d) outside footprint %+v", px, py, k.FP)
			}
			if f.IsPlaceholder() {
				t.Fatal("emitted fragment carries the placeholder sentinel")
			}
		}
	})
	if lastSlot != k.Threads()-1 {
		t.Errorf("ForEachThread visited %d slots, want %d", lastSlot+1, k.Threads())
	}
	if stats.RaysHit == 0 {
		t.Error("no rays hit the volume")
	}
	if stats.RaysHit != hitThreads {
		t.Errorf("RaysHit %d != threads with fragments %d", stats.RaysHit, hitThreads)
	}
	if hitThreads > int64(k.FP.Pixels()) {
		t.Errorf("%d hit threads exceed footprint pixels %d", hitThreads, k.FP.Pixels())
	}
	if want := int64(k.Threads())*4 + frags*composite.FragmentBytes; k.OutBytes() != want {
		t.Errorf("OutBytes %d, want %d (counts + packed fragments)", k.OutBytes(), want)
	}
}

func TestKernelOffScreenIsNil(t *testing.T) {
	src, _, prm := testScene(t, 16, 64)
	bd, sp := wholeBrick(t, src)
	// Camera looking away from the volume.
	cam, err := camera.New(vec.New3(0, 0, 5), vec.New3(0, 0, 10), vec.New3(0, 1, 0),
		math.Pi/4, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if k := NewKernel(cam, sp, &gpu.Texture3D{Data: bd}, prm); k != nil {
		t.Error("off-screen brick produced a kernel")
	}
}

func TestOpacityCorrectionStability(t *testing.T) {
	// Halving the step size must not wildly change the image: opacity
	// correction compensates. Compare mean luminance.
	src, cam, prm := testScene(t, 24, 32)
	fine := prm
	fine.StepVoxels = 0.5
	imgA, err := Reference(cam, src, prm, vec.V4{})
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := Reference(cam, src, fine, vec.V4{})
	if err != nil {
		t.Fatal(err)
	}
	var lumA, lumB float64
	for i := range imgA {
		lumA += float64(imgA[i].X + imgA[i].Y + imgA[i].Z)
		lumB += float64(imgB[i].X + imgB[i].Y + imgB[i].Z)
	}
	ratio := lumB / lumA
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("half-step changed mean luminance by %.2fx; opacity correction broken", ratio)
	}
}

func TestReferenceDeterministic(t *testing.T) {
	src, cam, prm := testScene(t, 16, 24)
	a, err := Reference(cam, src, prm, vec.V4{X: 0.1, Y: 0.1, Z: 0.1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reference(cam, src, prm, vec.V4{X: 0.1, Y: 0.1, Z: 0.1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d differs between identical renders", i)
		}
	}
}

func TestShadingChangesImageAndCost(t *testing.T) {
	src, cam, prm := testScene(t, 32, 48)
	bd, sp := wholeBrick(t, src)
	_, plain := CastPixel(cam, sp, bd, prm, 24, 24)
	shaded := prm
	shaded.Shading = true
	fragS, sCount := CastPixel(cam, sp, bd, shaded, 24, 24)
	if sCount.Samples <= plain.Samples {
		t.Errorf("shading should cost extra fetches: %+v vs %+v", sCount, plain)
	}
	fragP, _ := CastPixel(cam, sp, bd, prm, 24, 24)
	if fragS.R == fragP.R && fragS.G == fragP.G && fragS.B == fragP.B {
		t.Error("shading changed nothing")
	}
	// Shaded channels stay premultiplied-valid.
	if fragS.R > fragS.A+1e-5 || fragS.G > fragS.A+1e-5 || fragS.B > fragS.A+1e-5 {
		t.Errorf("shaded fragment breaks premultiplication: %+v", fragS)
	}
	// Alpha is untouched by shading.
	if fragS.A != fragP.A {
		t.Errorf("shading changed opacity: %v vs %v", fragS.A, fragP.A)
	}
}

func TestShadeAtHomogeneousRegion(t *testing.T) {
	v := volume.New(volume.Dims{X: 8, Y: 8, Z: 8})
	for i := range v.Data {
		v.Data[i] = 0.5 // constant field: zero gradient
	}
	g, err := volume.MakeGrid(v.Dims, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := volume.FillBrick(volume.NewVolumeSource(v, "t"), g.Bricks[0])
	if err != nil {
		t.Fatal(err)
	}
	var st volume.Stencil
	bd.SampleStencil(&st, 4, 4, 4)
	if got := shadeAt(bd, &st, vec.New3(0, 1, 0)); got != 1 {
		t.Errorf("homogeneous shade = %v, want 1 (no surface)", got)
	}
}

func TestPrepareDetectsMutation(t *testing.T) {
	// Mutating a prepared Params (copy) must re-derive the hoisted
	// constants instead of silently reusing stale ones.
	src, cam, prm := testScene(t, 16, 24)
	bd, sp := wholeBrick(t, src)
	coarse := prm.Prepare()
	fine := coarse
	fine.StepVoxels = 0.25
	fragMutated, sMutated := CastPixel(cam, sp, bd, fine, 12, 12)
	fresh := prm
	fresh.StepVoxels = 0.25
	fragFresh, sFresh := CastPixel(cam, sp, bd, fresh, 12, 12)
	if sMutated != sFresh {
		t.Fatalf("mutated-after-Prepare did %+v work, fresh params %+v", sMutated, sFresh)
	}
	if fragMutated != fragFresh {
		t.Fatalf("mutated-after-Prepare fragment %+v != fresh %+v", fragMutated, fragFresh)
	}
	// And the finer step must actually differ from the coarse one.
	fragCoarse, sCoarse := CastPixel(cam, sp, bd, coarse, 12, 12)
	if sCoarse.Samples >= sFresh.Samples {
		t.Fatalf("fine step took %d samples, coarse %d; mutation ignored?", sFresh.Samples, sCoarse.Samples)
	}
	_ = fragCoarse
}
