package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/mapreduce"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// The orbit workloads render frames back to back in-process, one frame
// outstanding (a closed loop with one caller), on the paper's 4-GPU
// cluster. orbit-ram stages from the dataset held in RAM; orbit-paged
// draws the same cameras from a compressed bricked v2 file paged through
// a private staging cache a quarter of the dense size. Both must
// reproduce the manifest's bits frame for frame.

const (
	orbitEdge       = 128
	orbitImage      = 256
	orbitGPUs       = 4
	orbitBricks     = 4  // BricksPerGPU: 16 render bricks
	pagedBrickEdge  = 32 // v2 file bricks: 64 of them
	pagedCacheShare = 4  // private staging cache = dense bytes / 4
)

//go:embed manifest.json
var manifestJSON []byte

// manifest holds the digest of every orbit-lattice frame, rendered by
// the orbit-ram path of unmodified code.
type manifest struct {
	Config  map[string]any `json:"config"`
	Digests []string       `json:"digests"` // index = orbit angle in degrees
}

func orbitConfig() map[string]any {
	return map[string]any{
		"dataset": dataset.Skull, "edge": orbitEdge, "image": orbitImage,
		"gpus": orbitGPUs, "bricks_per_gpu": orbitBricks, "shading": true,
		"lattice": orbitLattice,
	}
}

func loadManifest() (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if len(m.Digests) != orbitLattice {
		return nil, fmt.Errorf("manifest: %d digests, want %d", len(m.Digests), orbitLattice)
	}
	want, _ := json.Marshal(orbitConfig())
	got, _ := json.Marshal(m.Config)
	if string(want) != string(got) {
		return nil, fmt.Errorf("manifest: config %s, benchmark renders %s", got, want)
	}
	return &m, nil
}

// writeManifest renders every lattice angle through the orbit-ram path
// and writes the manifest the orbit workloads check against.
func writeManifest(path string) error {
	w := &orbitWorkload{}
	if err := w.setupSource(); err != nil {
		return err
	}
	m := manifest{Config: orbitConfig(), Digests: make([]string, orbitLattice)}
	for a := range m.Digests {
		res, err := w.render(a)
		if err != nil {
			return err
		}
		m.Digests[a] = res.Image.Digest()
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type orbitWorkload struct {
	paged   bool
	workDir string
	seed    int64
	want    *manifest

	spec   cluster.Spec
	src    volume.Source // the dataset; cameras are fitted to it
	opt    core.Options  // Source is what the renderer reads
	ps     *volume.PagedSource
	cache  *volume.StagingCache
	gen    *orbitGen
	setups int

	frames []orbitFrame // every frame rendered, across phases
}

type orbitFrame struct {
	Angle int
	Stats *mapreduce.JobStats
}

func (w *orbitWorkload) params() map[string]any {
	p := orbitConfig()
	p["source"] = "ram"
	if w.paged {
		p["source"] = fmt.Sprintf("v2 file, flate, %d³ file bricks, staging cache = dense/%d",
			pagedBrickEdge, pagedCacheShare)
	}
	p["loop"] = "closed, 1 caller"
	return p
}

// setupSource builds the dataset and render options (without paging).
func (w *orbitWorkload) setupSource() error {
	src, err := dataset.New(dataset.Skull, volume.Cube(orbitEdge))
	if err != nil {
		return err
	}
	tf, err := transfer.Preset(dataset.Skull)
	if err != nil {
		return err
	}
	w.spec = cluster.AC(orbitGPUs)
	w.src = src
	w.opt = core.Options{
		Source: src, TF: tf,
		Width: orbitImage, Height: orbitImage,
		Shading:      true,
		BricksPerGPU: orbitBricks,
	}
	return nil
}

// setup materialises the dataset (the staging cache is flushed first so
// every set-up pays it), writes and opens the paged file for
// orbit-paged, and renders one warm-up frame.
func (w *orbitWorkload) setup() error {
	volume.Cache.Flush()
	if err := w.setupSource(); err != nil {
		return err
	}
	if w.paged {
		w.setups++
		path := filepath.Join(w.workDir, fmt.Sprintf("skull-%d.gvmr", w.setups))
		if err := volume.WriteFileV2(path, w.src, volume.V2Options{BrickEdge: pagedBrickEdge, Compress: true}); err != nil {
			return err
		}
		ps, err := volume.OpenFileV2(path)
		if err != nil {
			return err
		}
		w.ps = ps
		w.cache = volume.NewStagingCache(w.src.Dims().Bytes() / pagedCacheShare)
		ps.SetCache(w.cache)
		w.opt.Source = ps
	}
	w.gen = newOrbitGen(w.seed)
	res, err := w.render(0)
	if err != nil {
		return err
	}
	if d := res.Image.Digest(); d != w.want.Digests[0] {
		return fmt.Errorf("warm-up frame digest %.12s, manifest %.12s", d, w.want.Digests[0])
	}
	return nil
}

func (w *orbitWorkload) close() {
	if w.ps != nil {
		w.ps.Close()
		os.Remove(w.ps.Name())
		w.ps = nil
	}
}

// options returns the render options for the frame at angle degrees.
func (w *orbitWorkload) options(angle int) (core.Options, error) {
	cam, err := core.OrbitCamera(w.src, orbitImage, orbitImage, float64(angle))
	opt := w.opt
	opt.Camera = cam
	return opt, err
}

func (w *orbitWorkload) render(angle int) (*core.Result, error) {
	opt, err := w.options(angle)
	if err != nil {
		return nil, err
	}
	res, _, err := core.RenderOn(w.spec, opt, 0)
	return res, err
}

// loop renders frames back to back until d has passed.
func (w *orbitWorkload) loop(d time.Duration, tr *tracer, p *phase) {
	p.first = len(w.frames)
	defer func() { p.end = len(w.frames) }()
	start := time.Now()
	for p.running(start, d, len(p.latMs)) {
		angle := w.gen.next()
		fid := len(w.frames)
		root, endFrame := tr.begin("frame", 0, fid)
		p.attempted++
		t0 := time.Now()
		_, endRender := tr.begin("core.render_on", root, fid)
		res, err := w.render(angle)
		endRender()
		lat := time.Since(t0)
		if err != nil {
			endFrame()
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("frame %d (orbit %d°): %v", fid, angle, err))
			continue
		}
		ok := res.Image.Digest() == w.want.Digests[angle]
		endFrame()
		w.frames = append(w.frames, orbitFrame{Angle: angle, Stats: res.Stats})
		p.latMs = append(p.latMs, ms(lat))
		p.virtualMs = append(p.virtualMs, res.Runtime.Seconds()*1e3)
		if !ok {
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("frame %d (orbit %d°): digest differs from the manifest", fid, angle))
		}
	}
}

// verify is a no-op: every orbit frame is checked against the manifest
// as it completes.
func (w *orbitWorkload) verify(*phase) {}

func (w *orbitWorkload) counters() counters {
	c := counters{staging: volume.Cache.Stats()}
	if w.paged {
		c.staging = w.cache.Stats()
		c.pager = w.ps.Stats()
	}
	return c
}

// layers computes the per-layer metrics of the traced phase p, replaying
// its first frames.
func (w *orbitWorkload) layers(p *phase, tr *tracer, lm layerMetrics) error {
	frames := w.frames[p.first:p.end]
	stats := make([]*mapreduce.JobStats, len(frames))
	for i, f := range frames {
		stats[i] = f.Stats
	}
	lm.frameStats(stats)
	lm.storage(len(frames), p.before, p.after)

	var outs []replayOut
	for i, f := range frames {
		if i == replayFrames {
			break
		}
		opt, err := w.options(f.Angle)
		if err != nil {
			return err
		}
		out, err := replayFrame(tr, replayIn{
			Frame: p.first + i, Spec: w.spec, Opt: opt,
			Stats: f.Stats, Digest: w.want.Digests[f.Angle],
		})
		if err != nil {
			return err
		}
		outs = append(outs, out)
	}
	lm.replays(outs, false)
	return nil
}
