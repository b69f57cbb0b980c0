// Command gvmrbench is the repository's benchmark. One invocation runs
// one workload for a fixed time from a seed, checks the bits of every
// frame it produced, and prints its metrics as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 140, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half, the traced half's
// frames are replayed layer by layer, and the metrics are the per-layer
// ones plus the tracing overhead. Build and run it with run.sh from the
// repository root; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"gvmr/internal/mapreduce"
	"gvmr/internal/server"
	"gvmr/internal/sim"
	"gvmr/internal/volume"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. minSamples is the fewest timed frames an untraced run
// reports on, so that 10 lie beyond its p90: a run measures for
// --seconds and then on until it holds that many, for at most three
// times as long. replayFrames bounds the frames a traced run replays.
const (
	setupRepeats = 5
	minSamples   = 100
	replayFrames = 4
)

var workloadNames = []string{"orbit-ram", "orbit-paged", "serve-cluster"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ Name, Unit string }{
	{"frames_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"cpu_ms_per_frame", "ms"},
	{"virtual_frame_ms", "ms"},
	{"rss_peak_mb", "MB"},
	{"success_frac", "ratio"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics with their units. README.md
// maps each to the end-to-end metric and workload it should move. A
// layer a workload never enters reads 0 on that workload.
var perLayer = []struct{ Name, Unit string }{
	{"render.ns_per_sample", "ns"},
	{"render.samples_per_frame", "count"},
	{"render.skip_frac", "ratio"},
	{"core.map_ms_per_frame", "ms"},
	{"mapreduce.fragments_per_frame", "count"},
	{"mapreduce.virtual_stage_ms.map", "ms"},
	{"mapreduce.virtual_stage_ms.partition_io", "ms"},
	{"mapreduce.virtual_stage_ms.sort", "ms"},
	{"mapreduce.virtual_stage_ms.reduce", "ms"},
	{"volume.stage_ms_per_frame", "ms"},
	{"volume.brick_reads_per_frame", "count"},
	{"volume.bytes_read_per_frame", "B"},
	{"volume.reload_frac", "ratio"},
	{"volume.fallbacks", "count"},
	{"volume.staging_hit_frac", "ratio"},
	{"volume.evictions_per_frame", "count"},
	{"composite.fold_ms_per_frame", "ms"},
	{"dist.encode_ms_per_frame", "ms"},
	{"dist.decode_ms_per_frame", "ms"},
	{"dist.compress_ratio", "ratio"},
	{"dist.wire_bytes_per_frame", "B"},
	{"dist.map_handler_ms_p50", "ms"},
	{"dist.batches_per_frame", "count"},
	{"dist.retries", "count"},
	{"dist.hedges", "count"},
	{"server.hit_frac", "ratio"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"server.hit_ms_p50", "ms"},
	{"server.http_ms_p50", "ms"},
	{"server.render_ms_mean", "ms"},
	{"server.queue_wait_ms_mean", "ms"},
	{"img.png_ms_per_frame", "ms"},
	{"img.png_bytes_per_frame", "B"},
	{"runtime.alloc_mb_per_frame", "MB"},
	{"runtime.gc_per_frame", "count"},
	{"runtime.cpu_busy_frac", "ratio"},
	{"trace.overhead_p50_frac", "ratio"},
	{"trace.overhead_fps_frac", "ratio"},
	{"trace.replayed_frames", "count"},
	{"self_ms_per_frame.frame", "ms"},
	{"self_ms_per_frame.core.render_on", "ms"},
	{"self_ms_per_frame.client.request", "ms"},
	{"self_ms_per_frame.server.handler", "ms"},
	{"self_ms_per_frame.dist.map_handler", "ms"},
	{"self_ms_per_frame.replay", "ms"},
	{"self_ms_per_frame.volume.stage", "ms"},
	{"self_ms_per_frame.render.cast_ray", "ms"},
	{"self_ms_per_frame.core.map_bricks", "ms"},
	{"self_ms_per_frame.composite.fold", "ms"},
	{"self_ms_per_frame.dist.encode", "ms"},
	{"self_ms_per_frame.dist.decode", "ms"},
	{"self_ms_per_frame.img.png", "ms"},
}

// counters is a snapshot of the cumulative layer counters a workload can
// read; a phase's activity is the difference of two snapshots.
type counters struct {
	staging volume.CacheStats
	pager   volume.PagerStats
	service server.Stats
}

// phase is one timed closed loop.
type phase struct {
	wall, cpu         time.Duration
	allocB            uint64
	gcs               uint32
	minSamples        int       // keep going past the phase's time until this many latencies
	latMs, virtualMs  []float64 // per completed frame; virtual per rendered frame
	attempted, failed int
	errs              []string
	first, end        int // the workload's frame records this phase made
	before, after     counters
}

// okFrames is the number of frames completed and verified.
func (p *phase) okFrames() int { return p.attempted - p.failed }

// running reports whether a phase that started at start and is meant to
// last d should start another frame, given n timed frames so far.
func (p *phase) running(start time.Time, d time.Duration, n int) bool {
	el := time.Since(start)
	return el < d || (n < p.minSamples && el < 3*d)
}

type workload interface {
	params() map[string]any
	setup() error
	close()
	counters() counters
	// loop runs the closed loop until d has passed, recording spans in tr
	// (nil when untraced).
	loop(d time.Duration, tr *tracer, p *phase)
	// verify checks what loop could not check inline; it runs outside
	// the timed phase.
	verify(p *phase)
	// layers fills the per-layer metrics of the traced phase p.
	layers(p *phase, tr *tracer, lm layerMetrics) error
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed (validate claims on %d too)", ValidationSeed))
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
		root     = flag.String("root", ".", "repository root; scratch files go under <root>/.bench_build")
		manifest = flag.String("write-manifest", "", "render every orbit-lattice frame and write the digest manifest to this path, then exit")
	)
	flag.Parse()
	if *manifest != "" {
		if err := writeManifest(*manifest); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1"))
	}
	work := filepath.Join(*root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	w, err := newWorkload(*name, *seed, work)
	if err != nil {
		fatal(err)
	}
	prov := provenance(*name, *seed, *seconds, *trace, w.params())
	data, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", data)
	if !prov["comparable"].(bool) {
		fmt.Fprintln(os.Stderr, "gvmrbench: NOT COMPARABLE: fewer than 2 CPUs")
	}

	d := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = runTraced(w, d, filepath.Join(*root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)), prov)
	} else {
		res, err = runUntraced(w, d)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gvmrbench:", err)
	os.Exit(1)
}

func newWorkload(name string, seed int64, workDir string) (workload, error) {
	switch name {
	case "orbit-ram", "orbit-paged":
		m, err := loadManifest()
		if err != nil {
			return nil, err
		}
		return &orbitWorkload{paged: name == "orbit-paged", workDir: workDir, seed: seed, want: m}, nil
	case "serve-cluster":
		return &serveWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// provenance records where and how a run was made. A run on fewer than
// two CPUs is flagged as not comparable: the workloads need two cores to
// show contention between staging, kernels and the wire.
func provenance(name string, seed int64, seconds, trace int, params map[string]any) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"params":     params,
		"comparable": runtime.NumCPU() >= 2,
	}
}

// setupTimes sets the workload up n times, closing all but the last, and
// returns each set-up's wall time in seconds.
func setupTimes(w workload, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			w.close()
			// Return the discarded set-up's memory, so that the peak
			// resident set is the run's and not the sum of its set-ups.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// measure runs one timed phase and takes the process-level deltas
// around it.
func measure(w workload, d time.Duration, tr *tracer, minSamples int) *phase {
	p := &phase{before: w.counters(), minSamples: minSamples}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0 := readUsage()
	t0 := time.Now()
	w.loop(d, tr, p)
	p.wall = time.Since(t0)
	u1 := readUsage()
	runtime.ReadMemStats(&m1)
	p.cpu = u1.cpu - u0.cpu
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	p.after = w.counters()
	return p
}

func report(p *phase) {
	for i, e := range p.errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "gvmrbench: … %d more failures\n", len(p.errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "gvmrbench: FAILED", e)
	}
}

func runUntraced(w workload, d time.Duration) (result, error) {
	setups, err := setupTimes(w, setupRepeats)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	p := measure(w, d, nil, minSamples)
	rss := readUsage().maxRSSB
	w.verify(p)
	report(p)
	n := float64(p.okFrames())
	vals := map[string]float64{
		"frames_per_s":     n / p.wall.Seconds(),
		"latency_ms_p50":   percentile(p.latMs, 0.5),
		"latency_ms_p90":   percentile(p.latMs, 0.9),
		"cpu_ms_per_frame": ms(p.cpu) / n,
		"virtual_frame_ms": mean(p.virtualMs),
		"rss_peak_mb":      float64(rss) / (1 << 20),
		"success_frac":     n / float64(p.attempted),
		"setup_s":          median(setups),
	}
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	res.Correct = p.failed == 0 && p.attempted > 0
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metric{Value: finite(vals[m.Name]), Unit: m.Unit}
	}
	return res, nil
}

// finite maps the NaN and infinities of an empty or failed run to 0,
// which JSON can carry; such a run is never correct.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// runTraced measures the workload traced for half the time and untraced
// for the other half, then replays the traced half's first frames layer
// by layer. The spans go to spanPath.
func runTraced(w workload, d time.Duration, spanPath string, prov map[string]any) (result, error) {
	if _, err := setupTimes(w, 1); err != nil {
		return result{}, err
	}
	defer w.close()
	// Untraced quarters on both sides of the traced half, so that a drift
	// in the machine's speed over the run cancels out of the overhead.
	tr := newTracer()
	first := measure(w, d/4, nil, 0)
	traced := measure(w, d/2, tr, 0)
	last := measure(w, d/4, nil, 0)
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range []*phase{first, traced, last} {
		w.verify(p)
		report(p)
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.okFrames() == 0 {
			res.Correct = false
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	plainLat := append(append([]float64(nil), first.latMs...), last.latMs...)
	plainFPS := float64(first.okFrames()+last.okFrames()) / (first.wall + last.wall).Seconds()

	lm := layerMetrics{}
	for _, m := range perLayer {
		lm[m.Name] = 0
	}
	if err := w.layers(traced, tr, lm); err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	n := float64(traced.okFrames())
	lm["runtime.alloc_mb_per_frame"] = float64(traced.allocB) / (1 << 20) / n
	lm["runtime.gc_per_frame"] = float64(traced.gcs) / n
	lm["runtime.cpu_busy_frac"] = traced.cpu.Seconds() / (traced.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	lm["trace.overhead_p50_frac"] = median(traced.latMs)/median(plainLat) - 1
	lm["trace.overhead_fps_frac"] = plainFPS/(n/traced.wall.Seconds()) - 1

	// Self time per frame: replay spans per replayed frame, the timed
	// loop's spans per frame the traced half completed.
	spans := tr.snapshot()
	inReplay := namesUnder(spans, "replay")
	for name, t := range selfTimes(spans) {
		per := n
		if inReplay[name] {
			per = lm["trace.replayed_frames"]
		}
		lm["self_ms_per_frame."+name] = ms(t) / per
	}
	if err := writeChrome(spanPath, spans, prov); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "gvmrbench: %d spans written to %s\n", len(spans), spanPath)

	for _, m := range perLayer {
		res.Metrics[m.Name] = metric{Value: finite(lm[m.Name]), Unit: m.Unit}
	}
	for name := range lm {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return res, nil
}

// layerMetrics collects the traced run's per-layer values by name.
type layerMetrics map[string]float64

// frameStats records the kernel and engine counts of the phase's frames
// from their own JobStats.
func (lm layerMetrics) frameStats(stats []*mapreduce.JobStats) {
	n := float64(len(stats))
	var samples, skipped, emitted float64
	var stage [4]float64 // virtual ms
	for _, s := range stats {
		samples += float64(s.TotalSamples)
		skipped += float64(s.TotalSamplesSkipped)
		emitted += float64(s.TotalEmitted)
		for i, t := range []sim.Time{s.MeanStage.Map, s.MeanStage.PartitionIO, s.MeanStage.Sort, s.MeanStage.Reduce} {
			stage[i] += t.Seconds() * 1e3
		}
	}
	lm["render.samples_per_frame"] = samples / n
	lm["render.skip_frac"] = skipped / (samples + skipped)
	lm["mapreduce.fragments_per_frame"] = emitted / n
	for i, st := range []string{"map", "partition_io", "sort", "reduce"} {
		lm["mapreduce.virtual_stage_ms."+st] = stage[i] / n
	}
}

// storage records the staging cache and pager deltas of a phase.
func (lm layerMetrics) storage(frames int, before, after counters) {
	n := float64(frames)
	hits := after.staging.Hits - before.staging.Hits
	misses := after.staging.Misses - before.staging.Misses
	if hits+misses > 0 {
		lm["volume.staging_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	lm["volume.evictions_per_frame"] = float64(after.staging.Evictions-before.staging.Evictions) / n
	reads := after.pager.BrickReads - before.pager.BrickReads
	lm["volume.brick_reads_per_frame"] = float64(reads) / n
	lm["volume.bytes_read_per_frame"] = float64(after.pager.BytesRead-before.pager.BytesRead) / n
	if reads > 0 {
		lm["volume.reload_frac"] = float64(after.pager.Reloads-before.pager.Reloads) / float64(reads)
	}
	lm["volume.fallbacks"] = float64(after.pager.Fallbacks - before.pager.Fallbacks)
}

// replays records the layer timings of replayed frames.
func (lm layerMetrics) replays(outs []replayOut, wire bool) {
	n := float64(len(outs))
	var r replayOut
	for _, o := range outs {
		r.Stage += o.Stage
		r.Cast += o.Cast
		r.Map += o.Map
		r.Fold += o.Fold
		r.Encode += o.Encode
		r.Decode += o.Decode
		r.PNG += o.PNG
		r.Samples += o.Samples
		r.WireBytes += o.WireBytes
		r.RawBytes += o.RawBytes
		r.PNGBytes += o.PNGBytes
	}
	lm["trace.replayed_frames"] = n
	lm["render.ns_per_sample"] = float64(r.Cast) / float64(r.Samples)
	lm["core.map_ms_per_frame"] = ms(r.Map) / n
	lm["volume.stage_ms_per_frame"] = ms(r.Stage) / n
	lm["composite.fold_ms_per_frame"] = ms(r.Fold) / n
	if wire {
		lm["dist.encode_ms_per_frame"] = ms(r.Encode) / n
		lm["dist.decode_ms_per_frame"] = ms(r.Decode) / n
		lm["dist.compress_ratio"] = float64(r.RawBytes) / float64(r.WireBytes)
		lm["img.png_ms_per_frame"] = ms(r.PNG) / n
		lm["img.png_bytes_per_frame"] = float64(r.PNGBytes) / n
	}
}
