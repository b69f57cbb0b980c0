package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/server"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, c := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 1, 10},
		{ten, 0.01, 1},
		{hundred, 0.5, 50},
		{hundred, 0.9, 90},
		{hundred, 0.91, 91},
		{[]float64{7}, 0.9, 7},
		{[]float64{1, 2}, 0.5, 1},
	} {
		if got := percentile(c.in, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	// With n samples, n − ⌈0.9·n⌉ lie strictly beyond the nearest-rank
	// p90: at 100 samples that is the 10 the benchmark asks for.
	beyond := 0
	p90 := percentile(hundred, 0.9)
	for _, v := range hundred {
		if v > p90 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p90 of 100, want 10", beyond)
	}
}

func TestSeedYieldsSameStream(t *testing.T) {
	a, b, c := newOrbitGen(DefaultSeed), newOrbitGen(DefaultSeed), newOrbitGen(ValidationSeed)
	differs := false
	for i := 0; i < 1000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("orbit draw %d: %d vs %d from one seed", i, x, y)
		}
		if x < 0 || x >= orbitLattice {
			t.Fatalf("orbit draw %d = %d outside the lattice", i, x)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Error("two seeds drew the same orbit stream")
	}

	s1, s2, s3 := newServeGen(DefaultSeed), newServeGen(DefaultSeed), newServeGen(ValidationSeed)
	if strings.Join(fmtAll(s1.hotSet()), ",") != strings.Join(fmtAll(s2.hotSet()), ",") {
		t.Fatal("one seed drew two hot sets")
	}
	hot := map[float64]bool{}
	for _, o := range s1.hotSet() {
		hot[o] = true
	}
	if len(hot) != hotSetSize {
		t.Fatalf("hot set has %d distinct views, want %d", len(hot), hotSetSize)
	}
	fresh := map[float64]bool{}
	differs = false
	for i := 0; i < 3000; i++ {
		x, y, z := s1.next(), s2.next(), s3.next()
		if x != y {
			t.Fatalf("request %d: %+v vs %+v from one seed", i, x, y)
		}
		differs = differs || x.Orbit != z.Orbit
		if x.Index != i {
			t.Fatalf("request %d has index %d", i, x.Index)
		}
		if x.Fresh {
			if fresh[x.Orbit] || hot[x.Orbit] {
				t.Fatalf("request %d: fresh orbit %g was used before", i, x.Orbit)
			}
			fresh[x.Orbit] = true
		} else if !hot[x.Orbit] {
			t.Fatalf("request %d: repeat orbit %g is not in the hot set", i, x.Orbit)
		}
	}
	if len(fresh) != 2000 {
		t.Errorf("%d fresh requests in 3000, want exactly two per three", len(fresh))
	}
	if !differs {
		t.Error("two seeds drew the same request stream")
	}
}

func fmtAll(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		data, _ := json.Marshal(x)
		out[i] = string(data)
	}
	return out
}

// A response that is not a verified 200 counts as failed.
func TestServeFailuresCount(t *testing.T) {
	for _, c := range []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"status 500", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "injected", http.StatusInternalServerError)
		}},
		{"status 429", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "injected", http.StatusTooManyRequests)
		}},
		{"no digest", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(server.HeaderServed, string(server.ViaCache))
			w.Write([]byte("png"))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fake := httptest.NewServer(c.handler)
			defer fake.Close()
			w := &serveWorkload{gen: newServeGen(DefaultSeed), base: fake.URL, client: fake.Client()}
			p := &phase{}
			w.loop(50*time.Millisecond, nil, p)
			if p.attempted == 0 || p.failed != p.attempted || len(p.latMs) != 0 {
				t.Fatalf("attempted %d, failed %d, %d latencies: every request should fail",
					p.attempted, p.failed, len(p.latMs))
			}
		})
	}
}

// A response whose digest differs from the direct render of its request
// counts as failed.
func TestServeDigestMismatchCounts(t *testing.T) {
	w := &serveWorkload{direct: map[float64]directFrame{
		10: {Digest: "good"},
		20: {Digest: "good"},
	}}
	w.responses = []serveResp{
		{Req: serveReq{Index: 0, Orbit: 10}, Digest: "good"},
		{Req: serveReq{Index: 1, Orbit: 20}, Digest: "bad"},
	}
	p := &phase{attempted: 2, end: 2}
	w.verify(p)
	if p.failed != 1 || p.okFrames() != 1 {
		t.Fatalf("failed %d, ok %d: want the mismatch alone to fail", p.failed, p.okFrames())
	}
}

// The replay must do the work the frame did: its sample and fragment
// counts equal the frame's JobStats, and its fold reproduces its bits.
func TestReplayMatchesFrame(t *testing.T) {
	src, err := dataset.New(dataset.Skull, volume.Cube(32))
	if err != nil {
		t.Fatal(err)
	}
	tf, err := transfer.Preset(dataset.Skull)
	if err != nil {
		t.Fatal(err)
	}
	for _, shading := range []bool{true, false} {
		cam, err := core.OrbitCamera(src, 48, 48, 33)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{
			Source: src, TF: tf, Width: 48, Height: 48, Camera: cam,
			Shading: shading, BricksPerGPU: 4,
		}
		spec := cluster.AC(4)
		res, _, err := core.RenderOn(spec, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := replayIn{Spec: spec, Opt: opt, Stats: res.Stats, Digest: res.Image.Digest(), Wire: true}
		out, err := replayFrame(newTracer(), in)
		if err != nil {
			t.Fatalf("shading %v: %v", shading, err)
		}
		if out.Samples != res.Stats.TotalSamples || out.Emitted != res.Stats.TotalEmitted || out.Samples == 0 {
			t.Fatalf("shading %v: replay counts %d/%d, frame %d/%d",
				shading, out.Samples, out.Emitted, res.Stats.TotalSamples, res.Stats.TotalEmitted)
		}
		if out.WireBytes == 0 || out.PNGBytes == 0 {
			t.Fatalf("shading %v: wire legs measured nothing: %+v", shading, out)
		}

		stats := *res.Stats
		stats.TotalSamples++
		in.Stats = &stats
		if _, err := replayFrame(nil, in); err == nil {
			t.Fatalf("shading %v: a replay that does different work passed", shading)
		}
		in.Stats = res.Stats
		in.Digest = "other"
		if _, err := replayFrame(nil, in); err == nil {
			t.Fatalf("shading %v: a replay folding to other bits passed", shading)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "replay", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms}, // past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25 * ms, End: 35 * ms},
		{ID: 6, Name: "other", Start: 0, End: 5 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"replay": 100*ms - 40*ms - 10*ms,
		"a":      20 * ms,
		"b":      30*ms - 10*ms + 30*ms,
		"c":      10 * ms,
		"other":  5 * ms,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
	under := namesUnder(spans, "replay")
	if !under["c"] || !under["replay"] || under["other"] {
		t.Errorf("namesUnder(replay) = %v", under)
	}
}

func TestManifestMatchesConfig(t *testing.T) {
	if _, err := loadManifest(); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json and the binary must name the same metrics.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the binary %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, binary %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloadNames[i])
		}
	}
}
