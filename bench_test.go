// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index), plus host-side
// microbenchmarks of the real computational kernels.
//
// The figure benchmarks drive the deterministic simulation at the scale
// selected by GVMR_SCALE (paper|quick, default paper — the paper's full
// 512² image, 128³–1024³, 1–32 GPU grid) and print the regenerated tables
// once. The expensive scaling sweep is shared across benchmarks through a
// cache, so Fig3/Fig4/Claims all report from one run. ns/op for the
// figure benchmarks is host wall time of the simulation, not the virtual
// cluster time; the printed tables carry the virtual (paper-comparable)
// numbers.
package gvmr_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/experiments"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

var sweepCache struct {
	once sync.Once
	rows []experiments.SweepRow
	err  error
}

func sweepRows(b *testing.B) []experiments.SweepRow {
	b.Helper()
	sweepCache.once.Do(func() {
		sweepCache.rows, sweepCache.err = experiments.Sweep(experiments.FromEnv())
	})
	if sweepCache.err != nil {
		b.Fatal(sweepCache.err)
	}
	return sweepCache.rows
}

var printOnce sync.Map

// printTable prints each named table a single time per process, so
// repeated benchmark iterations don't flood the output.
func printTable(name string, render func() string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", render())
	}
}

// BenchmarkFig2 regenerates Figure 2: one frame of each dataset.
func BenchmarkFig2(b *testing.B) {
	sc := experiments.FromEnv()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig2(sc, "")
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig2", t.String)
	}
}

// BenchmarkFig3 regenerates Figure 3: the stage breakdown over the full
// (volume × GPU count) grid.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b)
		t := experiments.Fig3(rows)
		printTable("fig3", t.String)
	}
}

// BenchmarkFig4 regenerates Figure 4: FPS and VPS series from the same
// sweep.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b)
		fps, vps := experiments.Fig4(rows)
		printTable("fig4", func() string { return fps.String() + "\n" + vps.String() })
	}
}

// BenchmarkEfficiency regenerates the §4.2 parallel-efficiency figure of
// merit.
func BenchmarkEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b)
		printTable("efficiency", experiments.Efficiency(rows).String)
	}
}

// BenchmarkSec63 regenerates the §6.3 map-phase bottleneck analysis
// (communication vs computation at 8 and 16 GPUs on the large volume).
func BenchmarkSec63(b *testing.B) {
	sc := experiments.FromEnv()
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.Sec63(sc)
		if err != nil {
			b.Fatal(err)
		}
		printTable("sec63", t.String)
	}
}

// BenchmarkMicro regenerates the §3 micro-cost table (disk, PCIe up,
// fragment read-back).
func BenchmarkMicro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Micro()
		if err != nil {
			b.Fatal(err)
		}
		printTable("micro", t.String)
	}
}

// BenchmarkBaseline regenerates the footnote-1 comparison against the
// CPU-cluster (ParaView stand-in) renderer.
func BenchmarkBaseline(b *testing.B) {
	sc := experiments.FromEnv()
	for i := 0; i < b.N; i++ {
		t, err := experiments.BaselineCmp(sc)
		if err != nil {
			b.Fatal(err)
		}
		printTable("baseline", t.String)
	}
}

// BenchmarkClaims checks the paper's headline claims against the sweep.
func BenchmarkClaims(b *testing.B) {
	sc := experiments.FromEnv()
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b)
		printTable("claims", experiments.ClaimsReport(sc, rows).String)
	}
}

// BenchmarkInOutOfCore regenerates the in-core vs out-of-core comparison.
func BenchmarkInOutOfCore(b *testing.B) {
	sc := experiments.FromEnv()
	for i := 0; i < b.N; i++ {
		t, err := experiments.InOutOfCore(sc)
		if err != nil {
			b.Fatal(err)
		}
		printTable("inoutcore", t.String)
	}
}

// BenchmarkAblation regenerates the §6.1/§7 design-choice ablations.
func BenchmarkAblation(b *testing.B) {
	sc := experiments.FromEnv()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Ablations(sc)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation", t.String)
	}
}

// BenchmarkZeroCopy regenerates the §7 0-copy emission estimate.
func BenchmarkZeroCopy(b *testing.B) {
	sc := experiments.FromEnv()
	for i := 0; i < b.N; i++ {
		printTable("zerocopy", experiments.ZeroCopy(sc).String)
	}
}

// ---- Host microbenchmarks: the real computational kernels. ----

func benchScene(b *testing.B, edge int) (*camera.Camera, volume.Space, *volume.BrickData, render.Params) {
	b.Helper()
	src, err := dataset.New(dataset.Skull, volume.Cube(edge))
	if err != nil {
		b.Fatal(err)
	}
	g, err := volume.MakeGrid(src.Dims(), [3]int{1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := volume.FillBrick(src, g.Bricks[0])
	if err != nil {
		b.Fatal(err)
	}
	cam, err := camera.Fit(g.Space.Bounds(), 256, 256)
	if err != nil {
		b.Fatal(err)
	}
	return cam, g.Space, bd, render.DefaultParams(transfer.SkullPreset())
}

// BenchmarkHostCastPixel measures the host's real ray-casting throughput
// (the per-thread body of the map kernel). Params are prepared once per
// brick, as Kernel does — light normalisation, the opacity-corrected
// table and the brick's empty-space structure are all hoisted out of the
// per-ray path by Params.PrepareBrick.
func BenchmarkHostCastPixel(b *testing.B) {
	cam, sp, bd, prm := benchScene(b, 64)
	prm = prm.PrepareBrick(bd)
	var samples int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px := 64 + i%128
		py := 64 + (i/128)%128
		_, s := render.CastPixel(cam, sp, bd, prm, px, py)
		samples += s.Samples
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/ray")
}

// BenchmarkHostCastPixelFineStep is the same ray at StepVoxels = 0.5,
// where every sample used to pay a math.Pow opacity correction that is
// now folded into the prepared transfer table.
func BenchmarkHostCastPixelFineStep(b *testing.B) {
	cam, sp, bd, prm := benchScene(b, 64)
	prm.StepVoxels = 0.5
	prm = prm.PrepareBrick(bd)
	var samples int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px := 64 + i%128
		py := 64 + (i/128)%128
		_, s := render.CastPixel(cam, sp, bd, prm, px, py)
		samples += s.Samples
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/ray")
}

// BenchmarkHostCastPixelNoSkip is BenchmarkHostCastPixel with the
// macrocell DDA disabled: the A/B for the empty-space-skipping win on
// the host (virtual-time wins are measured by seqbench).
func BenchmarkHostCastPixelNoSkip(b *testing.B) {
	cam, sp, bd, prm := benchScene(b, 64)
	prm.NoEmptySkip = true
	prm = prm.Prepare()
	var samples int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px := 64 + i%128
		py := 64 + (i/128)%128
		_, s := render.CastPixel(cam, sp, bd, prm, px, py)
		samples += s.Samples
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/ray")
}

// BenchmarkHostTrilinear measures raw trilinear sampling through a
// copy-backed brick. The per-brick sampler hoist (precomputed backing
// selection and origin floats) is what this path exercises: before the
// hoist every call re-derived them.
func BenchmarkHostTrilinear(b *testing.B) {
	_, _, bd, _ := benchScene(b, 64)
	r := rand.New(rand.NewSource(1))
	pts := make([][3]float32, 1024)
	for i := range pts {
		pts[i] = [3]float32{r.Float32() * 64, r.Float32() * 64, r.Float32() * 64}
	}
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		sink += bd.Sample(p[0], p[1], p[2])
	}
	_ = sink
}

// BenchmarkHostTrilinearView is BenchmarkHostTrilinear through a
// zero-copy view-backed brick (the staging-cache fast path); the hoisted
// sampler makes the two backings cost the same.
func BenchmarkHostTrilinearView(b *testing.B) {
	src, err := dataset.New(dataset.Skull, volume.Cube(64))
	if err != nil {
		b.Fatal(err)
	}
	v, err := volume.Materialize(src)
	if err != nil {
		b.Fatal(err)
	}
	g, err := volume.MakeGrid(v.Dims, [3]int{1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	bd := volume.ViewBrick(v, g.Bricks[0])
	r := rand.New(rand.NewSource(1))
	pts := make([][3]float32, 1024)
	for i := range pts {
		pts[i] = [3]float32{r.Float32() * 64, r.Float32() * 64, r.Float32() * 64}
	}
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		sink += bd.Sample(p[0], p[1], p[2])
	}
	_ = sink
}

// BenchmarkHostShadeStencil measures shaded rays: each contributing
// sample's classification fetch and six-fetch gradient run as one fused
// stencil (volume.BrickData.SampleStencil + Gradient). The cost model
// still charges all seven fetches.
func BenchmarkHostShadeStencil(b *testing.B) {
	cam, sp, bd, prm := benchScene(b, 64)
	prm.Shading = true
	prm = prm.PrepareBrick(bd)
	var samples int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px := 64 + i%128
		py := 64 + (i/128)%128
		_, s := render.CastPixel(cam, sp, bd, prm, px, py)
		samples += s.Samples
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/ray")
}

// BenchmarkHostGradient times one shaded sample's seven fetches on one
// fixed set of positions inside the skull brick: fused (SampleStencil +
// Gradient, as CastRay runs them) against seven independent Sample
// calls. ns/gradient reads the kernel ratio apart from end-to-end noise.
func BenchmarkHostGradient(b *testing.B) {
	_, _, bd, _ := benchScene(b, 64)
	r := rand.New(rand.NewSource(1))
	pts := make([][3]float32, 4096)
	for i := range pts {
		pts[i] = [3]float32{r.Float32() * 64, r.Float32() * 64, r.Float32() * 64}
	}
	b.Run("fused", func(b *testing.B) {
		var st volume.Stencil
		var sink float32
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			sink += bd.SampleStencil(&st, p[0], p[1], p[2])
			g := bd.Gradient(&st)
			sink += g.X + g.Y + g.Z
		}
		_ = sink
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/gradient")
	})
	b.Run("naive", func(b *testing.B) {
		var sink float32
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			sink += bd.Sample(p[0], p[1], p[2])
			sink += bd.Sample(p[0]+1, p[1], p[2]) - bd.Sample(p[0]-1, p[1], p[2]) +
				bd.Sample(p[0], p[1]+1, p[2]) - bd.Sample(p[0], p[1]-1, p[2]) +
				bd.Sample(p[0], p[1], p[2]+1) - bd.Sample(p[0], p[1], p[2]-1)
		}
		_ = sink
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/gradient")
	})
}

// BenchmarkHostCountingSort measures the θ(n) counting sort on a
// realistic fragment load (256k fragments over a 512² key range slice).
func BenchmarkHostCountingSort(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	const n = 256 * 1024
	const keys = 512 * 512 / 8
	kvs := make([]mapreduce.KV[composite.Fragment], n)
	for i := range kvs {
		kvs[i] = mapreduce.KV[composite.Fragment]{Key: r.Int31n(keys)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapreduce.CountingSort(kvs, keys)
	}
	b.SetBytes(n * composite.FragmentBytes)
}

// BenchmarkHostCompositePixel measures per-pixel fragment compositing
// (sort by depth + front-to-back fold), the reduce inner loop.
func BenchmarkHostCompositePixel(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	frags := make([]composite.Fragment, 8)
	for i := range frags {
		a := r.Float32()
		frags[i] = composite.Fragment{
			Key: 1, R: a * r.Float32(), G: a * r.Float32(), B: a * r.Float32(),
			A: a, Depth: r.Float32() * 10,
		}
	}
	bg := vec.V4{X: 0.1, Y: 0.1, Z: 0.1, W: 1}
	buf := make([]composite.Fragment, len(frags))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, frags)
		composite.CompositePixel(buf, bg)
	}
}

// BenchmarkHostFieldSkull measures analytic dataset evaluation (the
// synthetic-data substitution's cost).
func BenchmarkHostFieldSkull(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		x := float64(i%101) / 101
		y := float64(i%103) / 103
		z := float64(i%107) / 107
		sink += dataset.SkullField(x, y, z)
	}
	_ = sink
}

// BenchmarkHostFieldSupernova measures the fBm-noise dataset evaluation.
func BenchmarkHostFieldSupernova(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		x := float64(i%101) / 101
		y := float64(i%103) / 103
		z := float64(i%107) / 107
		sink += dataset.SupernovaField(x, y, z)
	}
	_ = sink
}
