package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/resilience"
)

// WorkerConfig sizes the worker side of the distributed map endpoint.
type WorkerConfig struct {
	// Spec is the node's local hardware: its bricks run on an instance of
	// this spec. It may be smaller than the job's virtual cluster (a
	// 1-GPU node maps its share of an 8-GPU job's bricks serially); only
	// the GPU model must match the job's planning spec.
	Spec cluster.Spec
	// DevWorkers caps host cores per map job (0 = all of GOMAXPROCS), as
	// in core.RenderOn.
	DevWorkers int
	// MaxEdge and MaxPixels bound requests exactly like the render
	// service's limits (defaults 512 and 4096²).
	MaxEdge   int
	MaxPixels int
	// MaxBody bounds JSON request bodies (default 1 MiB — map and
	// collect requests are small documents).
	MaxBody int64
	// MaxResponseBytes bounds one exchange push payload, on the wire and
	// decompressed (default 1 GiB, mirroring the coordinator's response
	// bound).
	MaxResponseBytes int64
	// PushClient posts exchange ranges to peer reducers (default: a
	// client on the shared tuned transport). PushTimeout bounds one peer
	// push (default 20s).
	PushClient  *http.Client
	PushTimeout time.Duration
	// MaxExchanges caps concurrent reduce sessions (default 64);
	// ExchangeTTL sweeps sessions whose coordinator vanished (default
	// 2 minutes).
	MaxExchanges int
	ExchangeTTL  time.Duration
	// Metrics, when non-nil, receives deadline-abort events (the server
	// shares its node-wide resilience counters).
	Metrics *resilience.Metrics
}

func (c *WorkerConfig) fillDefaults() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.MaxEdge == 0 {
		c.MaxEdge = 512
	}
	if c.MaxPixels == 0 {
		c.MaxPixels = 4096 * 4096
	}
	if c.MaxBody == 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxResponseBytes == 0 {
		c.MaxResponseBytes = 1 << 30
	}
	if c.PushClient == nil {
		c.PushClient = newClient()
	}
	if c.PushTimeout == 0 {
		c.PushTimeout = 20 * time.Second
	}
	if c.MaxExchanges == 0 {
		c.MaxExchanges = 64
	}
	if c.ExchangeTTL == 0 {
		c.ExchangeTTL = 2 * time.Minute
	}
	return nil
}

// requestError marks a deterministic problem with the request itself —
// the node is healthy, the request can never succeed anywhere as posed.
// Served as 400, which the coordinator deliberately does not treat as a
// node failure.
type requestError struct{ err error }

func (e requestError) Error() string { return e.err.Error() }
func (e requestError) Unwrap() error { return e.err }

// pushError marks a reduce-exchange push that a peer refused or never
// answered. The mapper itself is healthy — served as 424 (failed
// dependency) so the coordinator aborts the exchange without backing
// off the mapper.
type pushError struct{ err error }

func (e pushError) Error() string { return e.err.Error() }
func (e pushError) Unwrap() error { return e.err }

// deadlineError marks map work abandoned because the request's
// propagated end-to-end deadline expired. The node is healthy and the
// request was fine — the *budget* ran out. Served as 504 (gateway
// timeout), the one status the coordinator classifies as a deadline
// abort: no node is marked down and no retry is launched, because a
// retry cannot beat an already-spent deadline.
type deadlineError struct{ err error }

func (e deadlineError) Error() string { return e.err.Error() }
func (e deadlineError) Unwrap() error { return e.err }

// Worker serves MapPath: it decodes a MapRequest, cross-checks the grid
// plan, runs core.MapBricks on the local spec and either writes the
// stripe payload (classic) or pushes each reducer's pixel range into the
// frame's exchange (distributed reduce). Mount it on any mux (cmd/gvmrd
// mounts it on every service, so every daemon is worker-capable out of
// the box).
type Worker struct {
	cfg WorkerConfig
	ex  *exchangeTable

	// stripped counts placeholder fragments SanitizeStripes removed
	// before encoding — always zero unless a mapper bug leaks the
	// kernel-internal sentinel; surfaced in /stats so a leak is visible
	// fleet-wide instead of silently riding the wire.
	stripped atomic.Int64

	// mapBricks is the compute seam; tests substitute it to fault-inject
	// internal failures without a sick GPU model.
	mapBricks func(spec cluster.Spec, opt core.Options, brickIDs []int, devWorkers int) (*core.MapResult, error)
}

// NewWorker validates the config and builds the handler.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return &Worker{
		cfg:       cfg,
		ex:        newExchangeTable(cfg.MaxExchanges, cfg.ExchangeTTL),
		mapBricks: core.MapBricks,
	}, nil
}

// ExchangeStats snapshots the worker's reduce-exchange counters.
func (wk *Worker) ExchangeStats() ExchangeStats { return wk.ex.stats() }

// PlaceholdersStripped reports how many placeholder fragments the
// worker has stripped from outgoing stripes over its lifetime. Nonzero
// means a mapper bug leaked the kernel-internal sentinel.
func (wk *Worker) PlaceholdersStripped() int64 { return wk.stripped.Load() }

// mapOutcome is one successful map batch, ready to serve.
type mapOutcome struct {
	payload    []byte
	encoding   string // Content-Encoding of payload ("" = identity)
	frags      int
	mapSeconds float64
	reduced    bool // stripes went to the exchange, payload is empty
}

// ServeHTTP implements http.Handler for MapPath. Errors map to status by
// class: deterministic request problems are 400 (retrying elsewhere
// cannot help, the node is fine), failed exchange pushes are 424 (a
// *peer* is sick), and everything else — staging, planning, the map
// computation itself — is 500, which is what lets the coordinator mark
// a sick node down and steer placement away from it.
func (wk *Worker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req MapRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, wk.cfg.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad map request: %v", err), http.StatusBadRequest)
		return
	}
	// The propagated end-to-end deadline bounds this batch's context:
	// work the coordinator can no longer use is abandoned, not finished.
	ctx := r.Context()
	if budget, ok, err := resilience.ParseDeadline(r.Header.Get(resilience.HeaderDeadline)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	out, err := wk.run(ctx, req, negotiateEncoding(r.Header.Get("Accept-Encoding")))
	if err != nil {
		status := http.StatusInternalServerError
		var reqErr requestError
		var pErr pushError
		var dlErr deadlineError
		switch {
		case errors.As(err, &reqErr):
			status = http.StatusBadRequest
		case errors.As(err, &dlErr):
			status = http.StatusGatewayTimeout
			wk.cfg.Metrics.DeadlineAbort()
		case errors.As(err, &pErr):
			status = http.StatusFailedDependency
		}
		http.Error(w, err.Error(), status)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	if out.encoding != "" {
		h.Set("Content-Encoding", out.encoding)
	}
	h.Set("Content-Length", strconv.Itoa(len(out.payload)))
	h.Set(HeaderFragCount, strconv.Itoa(out.frags))
	h.Set(HeaderMapSeconds, strconv.FormatFloat(out.mapSeconds, 'g', -1, 64))
	h.Set(HeaderStripeDigest, PayloadDigest(out.payload))
	if out.reduced {
		h.Set(HeaderReduced, "1")
	}
	_, _ = w.Write(out.payload) // client hangup; the coordinator will retry
}

// Map is the in-process form of the endpoint: run a map batch and return
// the encoded identity payload, its fragment count and the job's virtual
// seconds. Tests share it.
func (wk *Worker) Map(req MapRequest) ([]byte, int, float64, error) {
	out, err := wk.run(context.Background(), req, "")
	if err != nil {
		return nil, 0, 0, err
	}
	return out.payload, out.frags, out.mapSeconds, nil
}

func (wk *Worker) run(ctx context.Context, req MapRequest, encoding string) (mapOutcome, error) {
	if err := req.Job.Validate(wk.cfg.MaxEdge, wk.cfg.MaxPixels); err != nil {
		return mapOutcome{}, requestError{err}
	}
	if len(req.Bricks) == 0 {
		return mapOutcome{}, requestError{fmt.Errorf("dist: empty brick batch")}
	}
	opt, err := req.Job.Options()
	if err != nil {
		return mapOutcome{}, requestError{err}
	}
	grid, err := core.PlanGrid(wk.cfg.Spec, opt)
	if err != nil {
		return mapOutcome{}, fmt.Errorf("dist: planning grid: %w", err)
	}
	if grid.Counts != req.GridCounts {
		// Not a request error: the request is fine for the rest of the
		// fleet, this node's GPU model or bricking policy diverged. A 500
		// backs the node off so placement stops feeding it batches it can
		// never run.
		return mapOutcome{}, fmt.Errorf(
			"dist: grid plan mismatch: worker %v != coordinator %v (GPU model or bricking policy differs)",
			grid.Counts, req.GridCounts)
	}
	numUnits, err := core.NumUnits(grid, opt.Partition)
	if err != nil {
		return mapOutcome{}, requestError{err}
	}
	seen := make(map[int]bool, len(req.Bricks))
	for _, id := range req.Bricks {
		if id < 0 || id >= numUnits {
			return mapOutcome{}, requestError{fmt.Errorf("dist: unit %d outside job of %d units", id, numUnits)}
		}
		if seen[id] {
			return mapOutcome{}, requestError{fmt.Errorf("dist: duplicate unit %d in batch", id)}
		}
		seen[id] = true
	}
	if req.Reduce != nil {
		if err := validatePlan(req.Reduce, int32(req.Job.Width)*int32(req.Job.Height)); err != nil {
			return mapOutcome{}, requestError{err}
		}
	}
	raw, mapSeconds, err := wk.mapBatch(ctx, opt, req.Bricks)
	if err != nil {
		return mapOutcome{}, err
	}
	rawFrags := 0
	for _, s := range raw {
		rawFrags += len(s.Frags)
	}
	// The wire contract says stripes carry only surviving fragments;
	// strip (and loudly count) any placeholder a buggy mapper leaked
	// rather than shipping the sentinel.
	stripes, stripped := SanitizeStripes(raw)
	if stripped > 0 {
		wk.stripped.Add(int64(stripped))
	}
	out := mapOutcome{frags: rawFrags - stripped, mapSeconds: mapSeconds}
	if req.Reduce != nil {
		if err := wk.pushStripes(ctx, req.Reduce, stripes); err != nil {
			return mapOutcome{}, err
		}
		out.reduced = true
		return out, nil
	}
	out.payload, err = EncodePayloadAs(stripes, encoding)
	if err != nil {
		return mapOutcome{}, err
	}
	out.encoding = encoding
	return out, nil
}

// mapBatch runs the map phase of one batch. Without a deadline the
// whole batch is a single core.MapBricks call — the golden path,
// unchanged. With a propagated deadline the batch is chunked one brick
// at a time with a deadline check between bricks, so a budget that
// expires mid-batch abandons the remaining bricks instead of computing
// results the coordinator can no longer use. Stripes are canonical per
// brick (DESIGN.md §9), so the image bits are identical either way;
// only the modeled virtual seconds can differ on the deadline path
// (per-brick staging is re-charged), and virtual time never reaches a
// frame digest.
func (wk *Worker) mapBatch(ctx context.Context, opt core.Options, bricks []int) ([]core.BrickStripe, float64, error) {
	if _, ok := ctx.Deadline(); !ok {
		res, err := wk.mapBricks(wk.cfg.Spec, opt, bricks, wk.cfg.DevWorkers)
		if err != nil {
			return nil, 0, fmt.Errorf("dist: map phase: %w", err)
		}
		return res.Stripes, res.Runtime.Seconds(), nil
	}
	// The wire contract requires ascending brick order regardless of the
	// request's (already duplicate-free) ordering.
	ids := append([]int(nil), bricks...)
	sort.Ints(ids)
	var stripes []core.BrickStripe
	var seconds float64
	for done, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, 0, deadlineError{fmt.Errorf(
				"dist: deadline expired after %d/%d bricks: %w", done, len(ids), err)}
		}
		res, err := wk.mapBricks(wk.cfg.Spec, opt, []int{id}, wk.cfg.DevWorkers)
		if err != nil {
			return nil, 0, fmt.Errorf("dist: map phase: %w", err)
		}
		stripes = append(stripes, res.Stripes...)
		seconds += res.Runtime.Seconds()
	}
	return stripes, seconds, nil
}

// validatePlan bounds a reduce plan before any work runs.
func validatePlan(plan *ReducePlan, keyRange int32) error {
	if plan.Exchange == "" || len(plan.Exchange) > maxExchangeID {
		return fmt.Errorf("dist: bad exchange ID %q", plan.Exchange)
	}
	if len(plan.Reducers) < 1 || len(plan.Reducers) > 4096 {
		return fmt.Errorf("dist: %d reducers outside [1, 4096]", len(plan.Reducers))
	}
	if plan.Self < -1 || plan.Self >= len(plan.Reducers) {
		return fmt.Errorf("dist: self index %d outside plan of %d reducers", plan.Self, len(plan.Reducers))
	}
	for i, t := range plan.Reducers {
		if t.Lo < 0 || t.Hi < t.Lo || t.Hi > keyRange {
			return fmt.Errorf("dist: reducer %d range [%d,%d) outside image of %d pixels", i, t.Lo, t.Hi, keyRange)
		}
		if t.Addr == "" && i != plan.Self {
			return fmt.Errorf("dist: reducer %d has no address", i)
		}
	}
	return nil
}

// pushStripes delivers each reducer's pixel range: in-process for the
// mapper's own range (zero wire bytes), POST /reduce for peers. Any peer
// failure aborts the whole exchange with a pushError — the coordinator
// falls back to the classic path, it never composites a partial frame.
func (wk *Worker) pushStripes(ctx context.Context, plan *ReducePlan, stripes []core.BrickStripe) error {
	for i, tgt := range plan.Reducers {
		sub := filterRange(stripes, tgt.Lo, tgt.Hi)
		if i == plan.Self {
			s, _, err := wk.ex.join(plan.Exchange, tgt.Lo, tgt.Hi, wk.ex.now())
			if err != nil {
				return pushError{err}
			}
			s.deliver(sub, 0, 0, wk.ex.now())
			continue
		}
		if err := wk.postPush(ctx, tgt, plan.Exchange, sub, plan.Compress); err != nil {
			return pushError{fmt.Errorf("dist: pushing range [%d,%d) to %s: %w", tgt.Lo, tgt.Hi, tgt.Addr, err)}
		}
	}
	return nil
}

func (wk *Worker) postPush(ctx context.Context, tgt ReduceTarget, exchange string,
	stripes []core.BrickStripe, compress bool) error {
	encoding := ""
	if compress {
		encoding = EncodingColumnar2
	}
	payload, err := EncodePayloadAs(stripes, encoding)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, wk.cfg.PushTimeout)
	defer cancel()
	u := fmt.Sprintf("%s%s?ex=%s&lo=%d&hi=%d", tgt.Addr, ReducePath, url.QueryEscape(exchange), tgt.Lo, tgt.Hi)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	req.Header.Set(HeaderStripeDigest, PayloadDigest(payload))
	resp, err := wk.cfg.PushClient.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		drainBody(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	drainBody(resp.Body)
	return nil
}
