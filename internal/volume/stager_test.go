package volume

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// stagerCase is one job shape for the stager tests: a flate v2 file of
// the volume, a render grid over it, and which of the grid's bricks the
// job stages.
type stagerCase struct {
	name      string
	dims      Dims
	fileEdge  int
	render    [3]int
	zeroBelow int  // voxels with x < zeroBelow are 0, so bricks there skip
	subset    bool // a MapBricks-style job over part of the grid
}

var stagerCases = []stagerCase{
	// Render cores 16×8×8 over 8³ file bricks: every file brick lies in
	// exactly one render core.
	{name: "aligned", dims: Dims{32, 24, 16}, fileEdge: 8, render: [3]int{2, 3, 2}},
	// A 7-brick axis over 32³ file bricks: render and file boundaries
	// never line up, and render cores straddle file bricks.
	{name: "misaligned", dims: Dims{64, 40, 33}, fileEdge: 32, render: [3]int{7, 3, 2}},
	// The low-x half is exactly zero: bricks whose ghost stays there are
	// skipped by directory min/max and must receive no slabs.
	{name: "skipped", dims: Dims{32, 16, 16}, fileEdge: 8, render: [3]int{4, 2, 2}, zeroBelow: 16},
	{name: "subset", dims: Dims{40, 24, 24}, fileEdge: 8, render: [3]int{5, 3, 3}, subset: true},
}

// skipBelow is the transfer-function predicate the tests stage with.
func skipBelow(lo, hi float32) bool { return hi < 0.5 }

// build writes the case's volume to a flate v2 file and returns the
// pager (cache disabled), the in-RAM volume and the render grid.
func (c stagerCase) build(t *testing.T) (*PagedSource, *Volume, *Grid) {
	t.Helper()
	v := randomVolume(rand.New(rand.NewSource(131)), c.dims)
	for z := 0; z < c.dims.Z; z++ {
		for y := 0; y < c.dims.Y; y++ {
			for x := 0; x < c.zeroBelow; x++ {
				v.Set(x, y, z, 0)
			}
		}
	}
	path := filepath.Join(t.TempDir(), c.name+".gvmr")
	if err := WriteFileV2(path, NewVolumeSource(v, "t"), V2Options{BrickEdge: c.fileEdge, Compress: true}); err != nil {
		t.Fatal(err)
	}
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	ps.SetCache(nil)
	g, err := MakeGrid(c.dims, c.render)
	if err != nil {
		t.Fatal(err)
	}
	return ps, v, g
}

// job returns the bricks of one job in a seeded random staging order:
// the whole grid, or for a subset case a random half of it.
func (c stagerCase) job(g *Grid, r *rand.Rand) []Brick {
	bricks := append([]Brick(nil), g.Bricks...)
	r.Shuffle(len(bricks), func(i, j int) { bricks[i], bricks[j] = bricks[j], bricks[i] })
	if c.subset {
		bricks = bricks[:len(bricks)/2]
	}
	return bricks
}

// checkStaged compares a staged brick with FillBrick over the in-RAM
// volume, bit for bit, or checks that a skipped brick really is
// invisible there.
func checkStaged(t *testing.T, v *Volume, b Brick, bd *BrickData) {
	t.Helper()
	want, err := FillBrick(NewVolumeSource(v, "ram"), b)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Empty() {
		for _, s := range want.Data {
			if !skipBelow(s, s) {
				t.Fatalf("brick %d skipped but holds visible sample %v", b.ID, s)
			}
		}
		return
	}
	if len(bd.Data) != len(want.Data) {
		t.Fatalf("brick %d: %d voxels, want %d", b.ID, len(bd.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(bd.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("brick %d voxel %d = %v, want %v", b.ID, i, bd.Data[i], want.Data[i])
		}
	}
}

// heldSlabs is the number of slabs st holds.
func heldSlabs(st *Stager) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.slabs)
}

// checkSlabs fails t unless every slab st holds lies in its recipient's
// ghost shell: one voxel thick, outside the recipient's core, and sized
// to the recipient's ghost region's intersection with the page.
func checkSlabs(t *testing.T, st *Stager, g, files *Grid) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	for k, slab := range st.slabs {
		b, p := g.Bricks[k.brick], files.Bricks[k.page].Core
		x, ok := intersect(b.Ghost, p)
		if _, core := intersect(b.Core, p); !ok || core || int64(len(slab)) != x.Ext.Voxels() ||
			(x.Ext.X > 1 && x.Ext.Y > 1 && x.Ext.Z > 1) {
			t.Fatalf("slab of page %d for brick %d (%d voxels, region %v) is not a ghost-shell slab",
				k.page, k.brick, len(slab), x)
		}
	}
}

// readCounts snapshots the pager's per-file-brick disk reads.
func readCounts(ps *PagedSource) map[int]int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	m := make(map[int]int, len(ps.reads))
	for i, n := range ps.reads {
		m[i] = n
	}
	return m
}

// TestStagerMatchesFillBrick stages every brick of a job through one
// Stager, in seeded random orders, from a flate v2 file, and compares
// each brick bit for bit with FillBrick over the same data in RAM. With
// the staging cache off, each file brick is decoded at most once plus
// once per job brick whose ghost region overlaps it more than one voxel
// deep in every axis, the slab memo holds only ghost-shell slabs, and it
// is empty after the last brick.
func TestStagerMatchesFillBrick(t *testing.T) {
	for _, c := range stagerCases {
		t.Run(c.name, func(t *testing.T) {
			ps, v, g := c.build(t)
			files := ps.BrickGrid()
			var skipped int
			for seed := int64(1); seed <= 4; seed++ {
				bricks := c.job(g, rand.New(rand.NewSource(seed)))
				before := readCounts(ps)
				hitsBefore := ps.Stats().GhostSlabHits
				st := NewStager(ps, bricks, skipBelow)
				thick := map[int]int{} // file brick → job bricks it must page for
				for _, b := range bricks {
					bd, err := st.Stage(b)
					if err != nil {
						t.Fatal(err)
					}
					checkStaged(t, v, b, bd)
					checkSlabs(t, st, g, files)
					if bd.Empty() {
						skipped++
						continue
					}
					for _, fb := range files.Bricks {
						if x, ok := intersect(b.Ghost, fb.Core); ok && x.Ext.X > 1 && x.Ext.Y > 1 && x.Ext.Z > 1 {
							thick[fb.ID]++
						}
					}
				}
				if n := heldSlabs(st); n != 0 {
					t.Errorf("seed %d: %d slabs still held after the last brick", seed, n)
				}
				after := readCounts(ps)
				for id, n := range after {
					if d := n - before[id]; d > 1+thick[id] {
						t.Errorf("seed %d: file brick %d decoded %d times, bound 1+%d", seed, id, d, thick[id])
					}
				}
				if ps.Stats().GhostSlabHits == hitsBefore {
					t.Errorf("seed %d: no page served from a ghost slab", seed)
				}
			}
			if c.zeroBelow > 0 && skipped == 0 {
				t.Error("no brick skipped by directory min/max")
			}
		})
	}
}

// TestStagerSharingReadsLess pins the point of the stager: on a grid of
// 4×4×4 render bricks over 8³ file bricks (the orbit-paged shape in
// miniature, each file brick inside exactly one render core), a shared
// job with the cache off decodes every file brick at most twice — once
// for the first render brick to reach it, once for the brick whose core
// holds it — where one-brick jobs decode it once per touching render
// brick.
func TestStagerSharingReadsLess(t *testing.T) {
	c := stagerCase{name: "orbit", dims: Dims{32, 32, 32}, fileEdge: 8, render: [3]int{4, 4, 4}}
	ps, _, g := c.build(t)
	for _, b := range g.Bricks {
		if _, err := StageBrickSkip(ps, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	alone := ps.Stats().BrickReads
	st := NewStager(ps, g.Bricks, nil)
	for _, b := range g.Bricks {
		if _, err := st.Stage(b); err != nil {
			t.Fatal(err)
		}
	}
	shared := ps.Stats().BrickReads - alone
	if files := int64(ps.BrickGrid().NumBricks()); shared > 2*files {
		t.Errorf("shared job decoded %d pages, want at most two per file brick (%d)", shared, 2*files)
	}
	if alone < 4*shared {
		t.Errorf("one-brick jobs decoded %d pages, shared %d: sharing saved too little", alone, shared)
	}
	t.Logf("one-brick jobs %d decodes, shared job %d", alone, shared)
}

// TestStagerConcurrentJobs runs several jobs at once on one PagedSource
// through a small shared staging cache, each job staged by two
// goroutines, so the pager, the pooled page decoders and the stager's
// memo all see concurrent use. Run under -race.
func TestStagerConcurrentJobs(t *testing.T) {
	c := stagerCases[1]
	ps, v, g := c.build(t)
	pageCost := (cacheKey{dims: Dims{32, 20, 17}}).bytes()
	ps.SetCache(NewStagingCache(3 * pageCost))
	type job struct {
		st     *Stager
		bricks []Brick
		staged []*BrickData
		errs   []error
	}
	jobs := make([]*job, 4)
	var wg sync.WaitGroup
	for j := range jobs {
		bricks := c.job(g, rand.New(rand.NewSource(int64(j))))
		jb := &job{
			st:     NewStager(ps, bricks, skipBelow),
			bricks: bricks,
			staged: make([]*BrickData, len(bricks)),
			errs:   make([]error, len(bricks)),
		}
		jobs[j] = jb
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(jb.bricks); i += 2 {
					jb.staged[i], jb.errs[i] = jb.st.Stage(jb.bricks[i])
				}
			}(w)
		}
	}
	wg.Wait()
	for j, jb := range jobs {
		for i, b := range jb.bricks {
			if jb.errs[i] != nil {
				t.Fatalf("job %d brick %d: %v", j, b.ID, jb.errs[i])
			}
			checkStaged(t, v, b, jb.staged[i])
		}
		if n := heldSlabs(jb.st); n != 0 {
			t.Errorf("job %d: %d slabs still held after the job", j, n)
		}
	}
}
