package main

import (
	"bytes"
	"fmt"
	"time"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// A replay re-runs one workload frame layer by layer, calling each
// layer's public functions in the order a render crosses them, so each
// layer's cost can be timed from outside without touching the program:
// stage every render brick, cast every ray, map every brick, fold every
// pixel, and (for served frames) encode and decode the stripes and
// encode the PNG. It covers every ray of the frame, not a sample, so its
// counts can be held to the frame's own JobStats exactly: a replay that
// does different work would measure a different program.

// replayIn is one frame to replay.
type replayIn struct {
	Frame  int
	Spec   cluster.Spec
	Opt    core.Options // Camera set
	Stats  *mapreduce.JobStats
	Digest string // the workload frame's bits
	// Wire asks for the stripe codec and PNG legs (served frames only);
	// Encoding is the Content-Encoding the workers answered with.
	Wire     bool
	Encoding string
}

// replayOut is what one replay measured.
type replayOut struct {
	Stage, Cast, Map, Fold, Encode, Decode, PNG time.Duration

	Samples, Emitted       int64 // CastRay replay
	MapSamples, MapEmitted int64 // MapBricks replay's JobStats
	WireBytes, RawBytes    int   // encoded stripes, compressed and identity
	PNGBytes               int
}

// identityOf maps a compressed stripe encoding to the identity layout of
// the same family, the base of the compression ratio.
var identityOf = map[string]string{
	dist.EncodingColumnar2: dist.EncodingListV2,
	dist.EncodingColumnar:  "",
}

func replayFrame(tr *tracer, in replayIn) (replayOut, error) {
	var out replayOut
	opt := in.Opt
	root, endRoot := tr.begin("replay", 0, in.Frame)
	defer endRoot()
	timed := func(name string, d *time.Duration, fn func() error) error {
		_, end := tr.begin(name, root, in.Frame)
		t0 := time.Now()
		err := fn()
		*d += time.Since(t0)
		end()
		return err
	}

	grid, err := core.PlanGrid(in.Spec, opt)
	if err != nil {
		return out, err
	}
	// The mapper stages through the process-wide staging cache and asks
	// the transfer function whether a brick's value range is invisible;
	// the replay does exactly the same.
	src := volume.Cached(opt.Source)
	tf := opt.TF
	tfEmpty := func(lo, hi float32) bool { return tf.MaxAlphaInRange(lo, hi) == 0 }
	prm := render.Params{
		TF:               tf,
		StepVoxels:       1,
		TerminationAlpha: 0.98,
		Shading:          opt.Shading,
	}
	for _, b := range grid.Bricks {
		var bd *volume.BrickData
		if err := timed("volume.stage", &out.Stage, func() (err error) {
			bd, err = volume.StageBrickSkip(src, b, tfEmpty)
			return err
		}); err != nil {
			return out, err
		}
		_ = timed("render.cast_ray", &out.Cast, func() error {
			s, e := castBrick(opt.Camera, grid.Space, bd, prm)
			out.Samples += s
			out.Emitted += e
			return nil
		})
	}

	ids := make([]int, grid.NumBricks())
	for i := range ids {
		ids[i] = i
	}
	var mr *core.MapResult
	if err := timed("core.map_bricks", &out.Map, func() (err error) {
		mr, err = core.MapBricks(in.Spec, opt, ids, 0)
		return err
	}); err != nil {
		return out, err
	}
	out.MapSamples, out.MapEmitted = mr.Stats.TotalSamples, mr.Stats.TotalEmitted
	if err := checkCounts(in, out); err != nil {
		return out, err
	}

	var folded *img.Image
	_ = timed("composite.fold", &out.Fold, func() error {
		folded = fold(mr.Stripes, opt)
		return nil
	})
	if d := folded.Digest(); d != in.Digest {
		return out, fmt.Errorf("replay of frame %d folds to %.12s, frame digest %.12s", in.Frame, d, in.Digest)
	}
	if !in.Wire {
		return out, nil
	}

	var payload []byte
	if err := timed("dist.encode", &out.Encode, func() (err error) {
		payload, err = dist.EncodePayloadAs(mr.Stripes, in.Encoding)
		return err
	}); err != nil {
		return out, err
	}
	if err := timed("dist.decode", &out.Decode, func() error {
		_, err := dist.DecodePayload(in.Encoding, payload, 1<<30)
		return err
	}); err != nil {
		return out, err
	}
	raw, err := dist.EncodePayloadAs(mr.Stripes, identityOf[in.Encoding])
	if err != nil {
		return out, err
	}
	out.WireBytes, out.RawBytes = len(payload), len(raw)

	var png bytes.Buffer
	if err := timed("img.png", &out.PNG, func() error { return folded.EncodePNG(&png) }); err != nil {
		return out, err
	}
	out.PNGBytes = png.Len()
	return out, nil
}

// checkCounts holds both replays to the workload frame's JobStats: the
// samples taken and the fragments emitted must be equal, exactly.
func checkCounts(in replayIn, out replayOut) error {
	want := [2]int64{in.Stats.TotalSamples, in.Stats.TotalEmitted}
	for _, got := range []struct {
		name string
		c    [2]int64
	}{
		{"CastRay", [2]int64{out.Samples, out.Emitted}},
		{"MapBricks", [2]int64{out.MapSamples, out.MapEmitted}},
	} {
		if got.c != want {
			return fmt.Errorf("%s replay of frame %d: samples/fragments %v, frame JobStats %v",
				got.name, in.Frame, got.c, want)
		}
	}
	return nil
}

// castBrick calls render.CastRay for every pixel of the brick's screen
// footprint, as render.Kernel does, and returns the samples taken and
// the fragments emitted (the pairs the engine sends to reducers).
func castBrick(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm render.Params) (samples, emitted int64) {
	fp, ok := cam.ProjectAABB(bd.Brick.Bounds)
	if !ok {
		return 0, 0
	}
	p := prm.PrepareBrick(bd)
	emit := func(composite.Fragment) { emitted++ }
	for py := fp.Y0; py <= fp.Y1; py++ {
		for px := fp.X0; px <= fp.X1; px++ {
			samples += render.CastRay(cam, sp, bd, p, px, py, emit).Samples
		}
	}
	return samples, emitted
}

// fold composites the stripes the way the coordinator and the reducers
// do: each pixel's fragments gathered in ascending unit order, sorted by
// depth, folded front to back over the background.
func fold(stripes []core.BrickStripe, opt core.Options) *img.Image {
	bg := opt.Background
	if bg.W == 0 {
		bg = vec.V4{W: 1} // core.Options' default background
	}
	im := img.New(opt.Width, opt.Height, composite.Finalize(composite.Fragment{}.Color(), bg))
	lists := make([][]composite.Fragment, opt.Width*opt.Height)
	for _, s := range stripes {
		for _, f := range s.Frags {
			lists[f.Key] = append(lists[f.Key], f)
		}
	}
	for key, l := range lists {
		if len(l) == 0 {
			continue
		}
		composite.SortByDepth(l)
		im.SetKey(int32(key), composite.CompositeSorted(l, bg))
	}
	return im
}
