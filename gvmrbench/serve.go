package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/mapreduce"
	"gvmr/internal/server"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// serve-cluster: closed-loop HTTP clients call GET /render on an
// in-process render service in coordinator mode (default settings:
// classic composite, compressed wire) over in-process 1-GPU workers, all
// on loopback. Two requests in three are fresh cameras (frame-cache
// misses: a distributed render, a PNG, a cache insert); the rest repeat
// a hot set warmed at set-up (hits). Each client waits for frame n
// before it asks for n+1, as an interactive viewer does.

const (
	serveClients = 2 // = the reference host's cores
	serveWorkers = 2
	serveEdge    = 128
	serveImage   = 256
	serveGPUs    = 4

	// serveCacheBytes holds about 60 frames: the hot set and the last few
	// dozen fresh frames. The cache fills within seconds, so the timed
	// phase measures its steady state (inserting and evicting) rather
	// than a heap that grows for as long as the run lasts.
	serveCacheBytes = 64 << 20

	// The benchmark's own request headers. The service ignores them; the
	// benchmark's middleware reads them to pair a handler span with the
	// client request that caused it.
	hdrRequest = "X-Gvmrbench-Request"
	hdrSpan    = "X-Gvmrbench-Span"
)

type serveWorkload struct {
	seed int64
	gen  *serveGen

	workers []*httptest.Server
	svc     *server.Service
	front   *httptest.Server
	base    string // front end URL
	client  *http.Client

	// rec is non-nil while a traced phase runs; the middleware records
	// into it and is a pass-through otherwise.
	rec atomic.Pointer[recorder]

	responses []serveResp // every timed response, across phases
	traced    *recorder   // what the middleware recorded in the traced phase

	direct map[float64]directFrame // verification renders by orbit
}

type serveResp struct {
	Req      serveReq
	LatMs    float64
	Digest   string
	Via      string
	RuntimeS float64
	Err      string
}

// directFrame is an in-process render of a served request, made outside
// the timed phase: the digest every response must match, and the frame's
// JobStats (a served frame's own are not exposed over HTTP; the digest
// check proves the two renders did the same work).
type directFrame struct {
	Digest string
	Opt    core.Options
	Stats  *mapreduce.JobStats
}

// recorder collects the traced phase's middleware measurements.
type recorder struct {
	tr        *tracer
	wireBytes atomic.Int64

	mu        sync.Mutex
	handlerMs map[int]float64 // by request index
	mapMs     []float64
	encodings map[string]int
}

func (w *serveWorkload) params() map[string]any {
	return map[string]any{
		"dataset": dataset.Skull, "edge": serveEdge, "image": serveImage,
		"gpus": serveGPUs, "bricks_per_gpu": 1, "shading": false,
		"workers": fmt.Sprintf("%d in-process, 1 GPU each", serveWorkers),
		"service": "coordinator, default config (classic composite, compressed wire) but a 64 MiB frame cache",
		"loop":    fmt.Sprintf("closed, %d HTTP clients over loopback", serveClients),
		"mix":     fmt.Sprintf("2 in 3 fresh cameras, rest from a hot set of %d", hotSetSize),
	}
}

// setup starts the workers and the service and warms the hot set (the
// staging cache is flushed first so every set-up materialises the
// dataset).
func (w *serveWorkload) setup() error {
	volume.Cache.Flush()
	w.gen = newServeGen(w.seed)
	addrs := make([]string, serveWorkers)
	for i := range addrs {
		wk, err := dist.NewWorker(dist.WorkerConfig{Spec: cluster.AC(1)})
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle(dist.MapPath, w.workerMiddleware(wk))
		mux.HandleFunc(dist.ReducePath, wk.HandleReducePush)
		mux.HandleFunc(dist.CollectPath, wk.HandleCollect)
		srv := httptest.NewServer(mux)
		w.workers = append(w.workers, srv)
		addrs[i] = srv.URL
	}
	svc, err := server.New(server.Config{WorkerAddrs: addrs, FrameCacheBytes: serveCacheBytes})
	if err != nil {
		return err
	}
	w.svc = svc
	w.front = httptest.NewServer(w.frontMiddleware(svc.Handler()))
	w.base = w.front.URL
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	for _, o := range w.gen.hotSet() {
		if r := w.get(serveReq{Index: -1, Orbit: o}, nil); r.Err != "" {
			return fmt.Errorf("warming orbit %g: %s", o, r.Err)
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.front != nil {
		w.front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = w.svc.Close(ctx) // the front end is closed: nothing is in flight
		cancel()
		w.client.CloseIdleConnections()
		w.front = nil
	}
	for _, s := range w.workers {
		s.Close()
	}
	w.workers = nil
}

func (w *serveWorkload) counters() counters {
	return counters{staging: volume.Cache.Stats(), service: w.svc.Stats()}
}

// get issues one request and classifies the response: a transport error,
// a status other than 200, a short body or a missing digest is a failure.
func (w *serveWorkload) get(q serveReq, tr *tracer) serveResp {
	out := serveResp{Req: q}
	url := fmt.Sprintf("%s/render?dataset=%s&edge=%d&size=%d&gpus=%d&orbit=%s",
		w.base, dataset.Skull, serveEdge, serveImage, serveGPUs, strconv.FormatFloat(q.Orbit, 'g', -1, 64))
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	id, end := tr.begin("client.request", 0, q.Index)
	req.Header.Set(hdrRequest, strconv.Itoa(q.Index))
	req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		end()
		out.Err = err.Error()
		return out
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out.LatMs = ms(time.Since(t0))
	end()
	out.Digest = resp.Header.Get(server.HeaderDigest)
	out.Via = resp.Header.Get(server.HeaderServed)
	switch {
	case err != nil:
		out.Err = "reading body: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		out.Err = "status " + resp.Status
	case n != resp.ContentLength:
		out.Err = fmt.Sprintf("body %d bytes, Content-Length %d", n, resp.ContentLength)
	case out.Digest == "":
		out.Err = "no " + server.HeaderDigest + " header"
	case out.Via == string(server.ViaRender):
		if out.RuntimeS, err = strconv.ParseFloat(resp.Header.Get(server.HeaderRuntime), 64); err != nil {
			out.Err = "bad " + server.HeaderRuntime + " header"
		}
	}
	return out
}

func (w *serveWorkload) loop(d time.Duration, tr *tracer, p *phase) {
	if tr != nil {
		w.traced = &recorder{tr: tr, handlerMs: map[int]float64{}, encodings: map[string]int{}}
		w.rec.Store(w.traced)
		defer w.rec.Store(nil)
	}
	start := time.Now()
	var done atomic.Int64
	got := make([][]serveResp, serveClients)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p.running(start, d, int(done.Load())) {
				got[c] = append(got[c], w.get(w.gen.next(), tr))
				done.Add(1)
			}
		}()
	}
	wg.Wait()

	p.first = len(w.responses)
	for _, g := range got {
		w.responses = append(w.responses, g...)
	}
	p.end = len(w.responses)
	mine := w.responses[p.first:p.end]
	sort.Slice(mine, func(i, j int) bool { return mine[i].Req.Index < mine[j].Req.Index })
	for _, r := range mine {
		p.attempted++
		if r.Err != "" {
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("request %d (orbit %g): %s", r.Req.Index, r.Req.Orbit, r.Err))
			continue
		}
		p.latMs = append(p.latMs, r.LatMs)
		if r.Via == string(server.ViaRender) {
			p.virtualMs = append(p.virtualMs, r.RuntimeS*1e3)
		}
	}
}

// verify renders every distinct request of the phase in-process and
// holds each response's digest to it.
func (w *serveWorkload) verify(p *phase) {
	for _, r := range w.responses[p.first:p.end] {
		if r.Err != "" {
			continue
		}
		want, err := w.directRender(r.Req.Orbit)
		switch {
		case err != nil:
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("request %d: direct render: %v", r.Req.Index, err))
		case want.Digest != r.Digest:
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("request %d (orbit %g, %s): digest %.12s, direct render %.12s",
				r.Req.Index, r.Req.Orbit, r.Via, r.Digest, want.Digest))
		}
	}
}

// directRender renders the frame a request addresses in-process, with
// the options the service derives from the request.
func (w *serveWorkload) directRender(orbit float64) (directFrame, error) {
	if f, ok := w.direct[orbit]; ok {
		return f, nil
	}
	src, err := dataset.New(dataset.Skull, dataset.PaperDims(dataset.Skull, serveEdge))
	if err != nil {
		return directFrame{}, err
	}
	tf, err := transfer.Preset(dataset.TFName(dataset.Skull))
	if err != nil {
		return directFrame{}, err
	}
	cam, err := core.OrbitCamera(src, serveImage, serveImage, orbit)
	if err != nil {
		return directFrame{}, err
	}
	opt := core.Options{
		Source: src, TF: tf,
		Width: serveImage, Height: serveImage,
		Camera: cam, GPUs: serveGPUs,
		StepVoxels: 1, TerminationAlpha: 0.98, BricksPerGPU: 1,
	}
	res, _, err := core.RenderOn(cluster.AC(serveGPUs), opt, 0)
	if err != nil {
		return directFrame{}, err
	}
	f := directFrame{Digest: res.Image.Digest(), Opt: opt, Stats: res.Stats}
	if w.direct == nil {
		w.direct = map[float64]directFrame{}
	}
	w.direct[orbit] = f
	return f, nil
}

// frontMiddleware times Service.Handler() while a traced phase runs.
func (w *serveWorkload) frontMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := w.rec.Load()
		if rec == nil {
			next.ServeHTTP(rw, r)
			return
		}
		idx, _ := strconv.Atoi(r.Header.Get(hdrRequest))
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		_, end := rec.tr.begin("server.handler", parent, idx)
		t0 := time.Now()
		next.ServeHTTP(rw, r)
		d := time.Since(t0)
		end()
		rec.mu.Lock()
		rec.handlerMs[idx] = ms(d)
		rec.mu.Unlock()
	})
}

// workerMiddleware times each worker /map call and counts its bytes
// on the wire (request and response bodies) while a traced phase runs.
// The coordinator's own client is left alone, so the span has no parent:
// a map call cannot be attributed to a frame from outside.
func (w *serveWorkload) workerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := w.rec.Load()
		if rec == nil {
			next.ServeHTTP(rw, r)
			return
		}
		_, end := rec.tr.begin("dist.map_handler", 0, -1)
		cw := &countingWriter{ResponseWriter: rw}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		d := time.Since(t0)
		end()
		rec.wireBytes.Add(cw.n + max(r.ContentLength, 0))
		rec.mu.Lock()
		rec.mapMs = append(rec.mapMs, ms(d))
		rec.encodings[rw.Header().Get("Content-Encoding")]++
		rec.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (w *serveWorkload) layers(p *phase, tr *tracer, lm layerMetrics) error {
	rec := w.traced
	resps := w.responses[p.first:p.end]
	var rendered []serveResp
	var stats []*mapreduce.JobStats
	var hitMs, renderHandlerMs, httpMs []float64
	hits := 0
	for _, r := range resps {
		if r.Err != "" {
			continue
		}
		h, timed := rec.handlerMs[r.Req.Index]
		if timed {
			httpMs = append(httpMs, r.LatMs-h)
		}
		switch r.Via {
		case string(server.ViaCache):
			hits++
			if timed {
				hitMs = append(hitMs, h)
			}
		case string(server.ViaRender):
			f, err := w.directRender(r.Req.Orbit)
			if err != nil {
				return err
			}
			rendered = append(rendered, r)
			stats = append(stats, f.Stats)
			if timed {
				renderHandlerMs = append(renderHandlerMs, h)
			}
		}
	}
	if len(rendered) == 0 {
		return fmt.Errorf("no rendered frames in the traced phase")
	}
	lm.frameStats(stats)
	lm.storage(p.okFrames(), p.before, p.after)

	nr := float64(len(rendered))
	b, a := p.before.service, p.after.service
	lm["server.hit_frac"] = float64(hits) / float64(p.okFrames())
	lm["server.coalesced"] = float64(a.Coalesced - b.Coalesced)
	lm["server.rejected"] = float64(a.Rejected - b.Rejected)
	lm["server.hit_ms_p50"] = median(hitMs)
	lm["server.http_ms_p50"] = median(httpMs)
	renderMs := (a.RenderWallSeconds - b.RenderWallSeconds) * 1e3 / float64(a.Renders-b.Renders)
	lm["server.render_ms_mean"] = renderMs
	lm["server.queue_wait_ms_mean"] = mean(renderHandlerMs) - renderMs
	if a.Dist != nil && b.Dist != nil {
		lm["dist.batches_per_frame"] = float64(a.Dist.Batches-b.Dist.Batches) / float64(a.Dist.Jobs-b.Dist.Jobs)
		lm["dist.retries"] = float64(a.Dist.Retries - b.Dist.Retries)
		lm["dist.hedges"] = float64(a.Dist.Hedges - b.Dist.Hedges)
	}
	lm["dist.wire_bytes_per_frame"] = float64(rec.wireBytes.Load()) / nr
	lm["dist.map_handler_ms_p50"] = median(rec.mapMs)

	encoding, most := dist.EncodingColumnar2, 0
	for enc, n := range rec.encodings {
		if n > most {
			encoding, most = enc, n
		}
	}
	var outs []replayOut
	for i, r := range rendered {
		if i == replayFrames {
			break
		}
		f, _ := w.directRender(r.Req.Orbit)
		out, err := replayFrame(tr, replayIn{
			Frame: r.Req.Index, Spec: cluster.AC(serveGPUs), Opt: f.Opt,
			Stats: f.Stats, Digest: r.Digest, Wire: true, Encoding: encoding,
		})
		if err != nil {
			return err
		}
		outs = append(outs, out)
	}
	lm.replays(outs, true)
	return nil
}
