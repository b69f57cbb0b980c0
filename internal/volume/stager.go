package volume

import "sync"

// Stager stages the bricks of one render job. Every brick stages as
// StageBrick stages it, with two exceptions (DESIGN.md §14):
//
//   - Skips. When the source can bound a brick's sample values without
//     reading them (RangedSource: the v2 pager's per-brick directory
//     min/max) and tfEmpty proves that whole range invisible under the
//     active transfer function, the brick stages as a payload-free empty
//     brick: no disk I/O, no staging-cache traffic, no upload bytes.
//   - Ghost-slab sharing. On a PagedSource, a render brick's ghost region
//     reaches one voxel into every neighbouring file brick, so a file
//     brick is otherwise paged once per render brick that touches it,
//     mostly to copy out a one-voxel slab. When the stager pages file
//     brick P for one render brick, it also copies out P's intersection
//     with every other pending brick of the job whose ghost region
//     reaches into P but whose core does not. That intersection lies in
//     the pending brick's ghost shell, so it is one voxel thick. The
//     pending brick later takes and deletes its slab instead of paging P.
//
// Intersections with a pending brick's core are never held: they would
// make the memo O(volume). The memo therefore never exceeds the ghost
// shells of the job's pending bricks, is empty once every brick has
// staged, and dies with the Stager. A slab is a copy of the same page
// data, so staged bits are those of an unshared fill; staging charges no
// virtual time, so the simulation cannot see the difference either.
//
// With every file brick at least two voxels thick in every axis, the
// slabs are exactly the intersections one voxel thick, and a job decodes
// each file brick at most once plus once per render brick whose core it
// overlaps (with the staging cache off; a cache hit decodes nothing).
// A Stager is safe for concurrent use.
type Stager struct {
	src     Source
	tfEmpty func(lo, hi float32) bool
	paged   *PagedSource // non-nil: the job shares ghost slabs

	mu      sync.Mutex
	pending map[int]Brick         // brick ID → slab recipient not yet staged
	slabs   map[slabKey][]float32 // ghost slabs waiting for their brick
}

// slabKey names the slab file brick page holds for render brick brick.
type slabKey struct{ brick, page int }

// NewStager returns the stager of a job over bricks, which must come from
// one grid. tfEmpty == nil (skipping disabled, or no transfer function)
// disables skips. Bricks the directory min/max will skip are not slab
// recipients. A brick not in the list stages correctly; it just receives
// no slabs.
func NewStager(src Source, bricks []Brick, tfEmpty func(lo, hi float32) bool) *Stager {
	st := &Stager{src: src, tfEmpty: tfEmpty}
	if ps, ok := src.(*PagedSource); ok {
		st.paged = ps
		st.pending = make(map[int]Brick, len(bricks))
		st.slabs = map[slabKey][]float32{}
		for _, b := range bricks {
			if _, _, skip := st.skipRange(b); !skip {
				st.pending[b.ID] = b
			}
		}
	}
	return st
}

// StageBrickSkip stages one brick as a one-brick job: a payload-free
// empty brick when the source's value bound is invisible under tfEmpty,
// otherwise StageBrick's result.
func StageBrickSkip(src Source, b Brick, tfEmpty func(lo, hi float32) bool) (*BrickData, error) {
	return NewStager(src, []Brick{b}, tfEmpty).Stage(b)
}

// brickSkipNoter is the optional hook a source can implement to count
// bricks that staging proved empty without touching it.
type brickSkipNoter interface{ NoteBrickSkip() }

// Stage stages brick b of the job.
func (st *Stager) Stage(b Brick) (*BrickData, error) {
	if lo, hi, skip := st.skipRange(b); skip {
		if n, ok := st.src.(brickSkipNoter); ok {
			n.NoteBrickSkip()
		}
		return EmptyBrickData(b, lo, hi), nil
	}
	if st.paged == nil {
		return StageBrick(st.src, b)
	}
	st.mu.Lock()
	delete(st.pending, b.ID)
	st.mu.Unlock()
	return fillBrick(b, func(dst []float32) error { return st.paged.fill(b.Ghost, dst, st, b.ID) })
}

// skipRange reports whether b stages as an empty brick, and its value
// bound. It bounds the ghost region, not just the core: trilinear
// fetches clamp into the sampled region, so the ghost range bounds every
// value a sample inside the brick can see.
func (st *Stager) skipRange(b Brick) (lo, hi float32, skip bool) {
	if st.tfEmpty == nil {
		return 0, 0, false
	}
	rs, ok := st.src.(RangedSource)
	if !ok {
		return 0, 0, false
	}
	lo, hi, known := rs.RegionRange(b.Ghost)
	return lo, hi, known && lo <= hi && st.tfEmpty(lo, hi)
}

// take removes and returns the slab of page held for brick, or nil. A
// nil Stager (a fill outside any job) holds none.
func (st *Stager) take(brick, page int) []float32 {
	if st == nil {
		return nil
	}
	k := slabKey{brick, page}
	st.mu.Lock()
	defer st.mu.Unlock()
	slab, ok := st.slabs[k]
	if ok {
		delete(st.slabs, k)
	}
	return slab
}

// share copies, for every pending brick whose ghost region reaches into
// page's core c but whose core does not, that one-voxel intersection out
// of the page's data. A nil Stager shares nothing.
func (st *Stager) share(page int, c Region, data []float32) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for id, b := range st.pending {
		k := slabKey{id, page}
		if _, held := st.slabs[k]; held {
			continue
		}
		if _, core := intersect(b.Core, c); core {
			continue
		}
		x, ok := intersect(b.Ghost, c)
		if !ok {
			continue
		}
		slab := make([]float32, x.Ext.Voxels())
		copyBox(slab, x, data, c, x)
		st.slabs[k] = slab
	}
}
