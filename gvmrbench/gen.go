package main

import (
	"math/rand/v2"
	"sync"
)

// The generator is the only place a workload's inputs come from: the
// workload seed goes in, camera angles and request streams come out, and
// the program under test sees nothing but those inputs. The same seed
// always yields the same streams; a run consumes a prefix of its stream
// whose length depends only on how fast the program is.

// DefaultSeed is the seed the committed manifest's frames were drawn
// with; ValidationSeed is the second seed a performance claim must also
// hold on (a seed not used while the change was written).
const (
	DefaultSeed    = 1
	ValidationSeed = 2
)

// orbitLattice is the number of whole-degree orbit angles the orbit
// workloads draw from. Keeping cameras on a lattice lets one committed
// manifest check the bits of every frame of every seed.
const orbitLattice = 360

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// orbitGen draws the orbit workloads' camera stream: whole-degree angles
// uniform on the lattice, independently per frame.
type orbitGen struct{ rng *rand.Rand }

func newOrbitGen(seed int64) *orbitGen { return &orbitGen{rng: newRNG(seed, 1)} }

// next returns the next frame's orbit angle in degrees.
func (g *orbitGen) next() int { return g.rng.IntN(orbitLattice) }

// serveReq is one /render request of the serve-cluster stream.
type serveReq struct {
	Index int
	Orbit float64 // degrees along the fitted orbit
	Fresh bool    // a camera no earlier request used: a frame-cache miss
}

// hotSetSize is the number of repeated views. With one request in three
// a repeat, each view comes back about every 12 requests, long before
// the serve-cluster frame cache (about 60 frames) could evict it, so after
// warm-up a repeat is a hit.
const hotSetSize = 4

// freshLattice spaces fresh cameras a hundredth of a degree apart, far
// finer than the hot set, so fresh angles never collide with it.
const freshLattice = 36000

// serveGen draws the serve-cluster request stream. Every block of three
// requests holds exactly one repeat of a seeded hot-set view at a seeded
// position; the other two are fresh cameras. Fixing the mix per block
// (rather than per coin flip) keeps the hit fraction the same in every
// run. Misses are the majority so that the median request is a miss: a
// hit's sub-millisecond latency depends on where the scheduler happens
// to be in a concurrent render, and a median taken among hits swings by
// a factor of several between runs. Safe for concurrent use: clients
// share one stream, so the requests a run issues are always a prefix of
// it.
type serveGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	hot     []float64
	used    map[int]bool
	n       int
	hotSlot int
}

func newServeGen(seed int64) *serveGen {
	g := &serveGen{rng: newRNG(seed, 2), used: map[int]bool{}}
	for len(g.hot) < hotSetSize {
		a := g.rng.IntN(orbitLattice)
		if g.used[a*100] {
			continue
		}
		g.used[a*100] = true
		g.hot = append(g.hot, float64(a))
	}
	return g
}

// hotSet returns the repeated views, warmed into the cache at set-up.
func (g *serveGen) hotSet() []float64 { return append([]float64(nil), g.hot...) }

// next returns the stream's next request.
func (g *serveGen) next() serveReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := g.n
	g.n++
	if i%3 == 0 {
		g.hotSlot = g.rng.IntN(3)
	}
	if i%3 == g.hotSlot {
		return serveReq{Index: i, Orbit: g.hot[g.rng.IntN(len(g.hot))]}
	}
	for {
		c := g.rng.IntN(freshLattice)
		if !g.used[c] {
			g.used[c] = true
			return serveReq{Index: i, Orbit: float64(c) / 100, Fresh: true}
		}
	}
}
