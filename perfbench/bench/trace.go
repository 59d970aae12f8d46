package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	predint "repro"
	"repro/internal/buffering"
	"repro/internal/coordinator"
	"repro/internal/surface"
	"repro/internal/variation"
)

// The traced run replays requests through each layer's public entry
// point and records a span around every call. The program itself is
// not instrumented: a request's root span is its HTTP round trip to
// the live server, and each layer below is a separate in-process call
// on the same inputs, recorded as a child of the layer that contains
// that work. A layer's self time is its span minus the time its
// children cover. Spans stay in memory and are written out at the end.

// span is one timed call. Path spans lie on the request's own path and
// are reconciled against its latency; off-path spans time an entry
// point on the request's inputs that this workload's requests do not
// reach (for example Optimize on a surface hit).
type span struct {
	Name string `json:"name"`
	// Req is the replay index; replay i sends op i mod len(ops).
	Req    int   `json:"req"`
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	Path   bool  `json:"path"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// do runs fn inside a span and returns the span's index.
func (t *tracer) do(name string, req, parent int, path bool, fn func() error) (int, error) {
	start := time.Since(t.t0).Nanoseconds()
	err := fn()
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end, Path: path})
	return len(t.spans) - 1, err
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// selfTimes returns each path span's self time in ms — its duration
// minus the union of its path children's intervals — and its weight on
// the request's wall clock. Children of one parent may run
// concurrently, as the shard RPCs of one wave do; each of them then
// carries the share cover/Σduration of its parent's weight, so the
// weighted self times of a request sum to its round trip while the
// unweighted ones sum to the work done on all processes.
func selfTimes(spans []span) (self, weight []float64) {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Path && s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self = make([]float64, len(spans))
	share := make([]float64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		// Walk the children as clusters of overlapping intervals.
		var cover int64
		for c := 0; c < len(ks); {
			start, end := spans[ks[c]].Start, spans[ks[c]].End
			var sum int64
			d := c
			for ; d < len(ks) && spans[ks[d]].Start <= end; d++ {
				end = max(end, spans[ks[d]].End)
				sum += spans[ks[d]].End - spans[ks[d]].Start
			}
			cover += end - start
			for _, k := range ks[c:d] {
				share[k] = 1
				if sum > 0 {
					share[k] = float64(end-start) / float64(sum)
				}
			}
			c = d
		}
		self[i] = float64(s.End-s.Start-cover) / 1e6
	}
	// Spans are recorded after their parents, so one pass in index
	// order propagates weights down the tree.
	weight = make([]float64, len(spans))
	for i, s := range spans {
		weight[i] = 1
		if s.Parent >= 0 && s.Path {
			weight[i] = weight[s.Parent] * share[i]
		}
	}
	return self, weight
}

// traceMaxOps and traceMaxTime bound the replay of one workload.
const (
	traceMaxOps  = 240
	traceMaxTime = 20 * time.Second
)

func traceRun(w *workload, f *fleet, cl *http.Client, before, after snapshot, win window, v verdict, e2e map[string]metric, logDir string) (map[string]metric, error) {
	ctx := context.Background()
	tr := &tracer{t0: time.Now()}
	base := "http://" + f.entry.addr
	var coord *coordinator.Coordinator
	var workers []string
	if w.spec.workers > 0 {
		for _, p := range f.procs[:w.spec.workers] {
			workers = append(workers, p.addr)
		}
		var err error
		coord, err = coordinator.New(coordinator.Config{Workers: workers, Client: newClient()})
		if err != nil {
			return nil, err
		}
		defer coord.Close()
	}
	var partialBytes []float64
	for i := 0; i < traceMaxOps && time.Since(tr.t0) < traceMaxTime; i++ {
		o := w.ops[i%len(w.ops)]
		// The round trip runs with the client on one P, as in the
		// untraced window; the replays below may use both.
		procs := runtime.GOMAXPROCS(1)
		root, err := tr.do("request", i, -1, true, func() error {
			status, body, _, err := call(cl, base, o)
			if err == nil {
				err = check(o, status, body)
			}
			return err
		})
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return nil, err
		}
		switch {
		case w.replica != nil:
			err = traceWarm(ctx, tr, o, i, root, w.replica)
		case coord != nil:
			var pb []float64
			pb, err = traceShards(ctx, tr, o, i, root, coord, workers)
			partialBytes = append(partialBytes, pb...)
		default:
			err = traceLocal(ctx, tr, o, i, root)
		}
		if err != nil {
			return nil, fmt.Errorf("traced replay of op %d: %v", o.id, err)
		}
	}
	allocs, bytesPer, err := facadeAllocs(ctx, w, workers)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(logDir, "spans.json"), tr.spans); err != nil {
		return nil, err
	}
	return layerMetrics(w, f, tr.spans, before, after, win, v, e2e, partialBytes, allocs, bytesPer), nil
}

// traceLocal replays a cold request: the facade, then the layers it
// runs — Optimize and the variation kernel (with the WCD bound inside
// it on auto-routed deep-sigma requests), or the sizing search.
func traceLocal(ctx context.Context, tr *tracer, o *op, rid, root int) error {
	var res predint.YieldResult
	fy, err := tr.do("facade.yield", rid, root, true, func() (err error) {
		res, err = predint.Surfaced{}.LinkYieldCtx(ctx, o.req.yieldRequest())
		return err
	})
	if err != nil {
		return err
	}
	p, err := planOf(o.req)
	if err != nil {
		return err
	}
	if o.req.YieldTarget != nil {
		var sized variation.SizedDesign
		if _, err := tr.do("variation.size", rid, fy, true, func() (err error) {
			sized, err = variation.SizeForYieldCtx(ctx, p.tc, p.seg, p.sizing(*o.req.YieldTarget))
			return err
		}); err != nil {
			return err
		}
		if sized.Estimate.FailProb != res.FailProb || sized.Resized != res.Resized {
			return fmt.Errorf("sizing replay diverges from the facade")
		}
		// Optimize is inside the sizing search; time it off the path.
		_, err := tr.do("buffering.optimize", rid, fy, false, func() error {
			_, err := buffering.Optimize(p.seg, p.bufOpts)
			return err
		})
		return err
	}
	var des buffering.Design
	if _, err := tr.do("buffering.optimize", rid, fy, true, func() (err error) {
		des, err = buffering.Optimize(p.seg, p.bufOpts)
		return err
	}); err != nil {
		return err
	}
	sc := p.scenario(des)
	var est variation.Estimate
	ve, err := tr.do("variation.estimate", rid, fy, true, func() (err error) {
		est, err = variation.EstimateLinkYieldCtx(ctx, sc, p.mc)
		return err
	})
	if err != nil {
		return err
	}
	if est.FailProb != res.FailProb || est.Samples != res.Samples {
		return fmt.Errorf("layer replay diverges from the facade")
	}
	if p.mc.TargetSigma >= 3 {
		// The WCD pre-filter runs inside the auto-routed estimate.
		if _, err := tr.do("variation.wcd", rid, ve, true, func() error {
			_, err := variation.WCDForScenarioCtx(ctx, sc)
			return err
		}); err != nil {
			return err
		}
	} else {
		// A shardable request: time the plan a coordinator would build.
		if _, err := tr.do("facade.shard_plan", rid, fy, false, func() error {
			_, err := predint.YieldShardPlanFor(o.req.yieldRequest())
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// traceWarm replays a surface hit against the replica surface.
func traceWarm(ctx context.Context, tr *tracer, o *op, rid, root int, replica *surface.Cache) error {
	sf := predint.Surfaced{Cache: replica}
	var ok bool
	if _, err := tr.do("facade.surface_probe", rid, root, true, func() (err error) {
		if o.batch() {
			_, ok, err = sf.LinkYieldBatchSurfaceCtx(ctx, o.req.batchRequest())
		} else {
			_, ok, err = sf.LinkYieldSurfaceCtx(ctx, o.req.yieldRequest())
		}
		return err
	}); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("replica surface missed")
	}
	// A hit never runs Optimize; timing it here on the same link shows
	// what the memoized design saves.
	p, err := planOf(o.req)
	if err != nil {
		return err
	}
	_, err = tr.do("buffering.optimize", rid, root, false, func() error {
		_, err := buffering.Optimize(p.seg, p.bufOpts)
		return err
	})
	return err
}

// traceShards replays a coordinator request: Coordinator.Estimate
// against the same workers, then its parts — the front's plan, each
// wave's shard RPCs (concurrent, as the coordinator issues them), and
// the merge — and, inside each RPC, ExecuteShard in-process with the
// worker's replan and collection inside it.
func traceShards(ctx context.Context, tr *tracer, o *op, rid, root int, coord *coordinator.Coordinator, workers []string) ([]float64, error) {
	req := o.req.yieldRequest()
	var res predint.YieldResult
	ce, err := tr.do("coordinator.estimate", rid, root, true, func() (err error) {
		res, err = coord.Estimate(ctx, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The same request served serially in-process, for comparison.
	if _, err := tr.do("facade.yield", rid, root, false, func() error {
		_, err := predint.Surfaced{}.LinkYieldCtx(ctx, req)
		return err
	}); err != nil {
		return nil, err
	}
	var pl *predint.YieldShardPlan
	if _, err := tr.do("facade.shard_plan", rid, ce, true, func() (err error) {
		pl, err = predint.YieldShardPlanFor(req)
		return err
	}); err != nil {
		return nil, err
	}
	p, err := planOf(o.req)
	if err != nil {
		return nil, err
	}
	if _, err := tr.do("buffering.optimize", rid, ce, false, func() error {
		_, err := buffering.Optimize(p.seg, p.bufOpts)
		return err
	}); err != nil {
		return nil, err
	}
	ranges := shardRanges(pl, len(workers))
	parts := make([]variation.Partial, len(ranges))
	rpcs := make([]int, len(ranges))
	shifted := make([]bool, len(ranges))
	for wave := 0; wave < len(ranges); wave += len(workers) {
		var wg sync.WaitGroup
		errs := make([]error, len(ranges))
		for i := wave; i < min(wave+len(workers), len(ranges)); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rpcs[i], errs[i] = tr.do("coordinator.shard_rpc", rid, ce, true, func() error {
					resp, err := shardRPC(workers[i%len(workers)], coordinator.ShardRequest{
						Op: coordinator.OpSample, Req: req, Start: ranges[i][0], Count: ranges[i][1],
					})
					if err == nil {
						parts[i] = *resp.Part
						shifted[i] = resp.Shifted
					}
					return err
				})
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	var est variation.Estimate
	if _, err := tr.do("variation.merge", rid, ce, true, func() (err error) {
		est, _, err = pl.Merge(parts, shifted[0])
		return err
	}); err != nil {
		return nil, err
	}
	if got := pl.Result(est); got.FailProb != res.FailProb {
		return nil, fmt.Errorf("merged shard replay diverges from Coordinator.Estimate")
	}
	var sizes []float64
	for i, rg := range ranges {
		var resp coordinator.ShardResponse
		ex, err := tr.do("coordinator.execute_shard", rid, rpcs[i], true, func() (err error) {
			resp, err = coordinator.ExecuteShard(ctx, nil, coordinator.ShardRequest{Op: coordinator.OpSample, Req: req, Start: rg[0], Count: rg[1]})
			return err
		})
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, float64(len(b)))
		var wpl *predint.YieldShardPlan
		if _, err := tr.do("facade.shard_plan", rid, ex, true, func() (err error) {
			wpl, err = predint.YieldShardPlanFor(req)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := tr.do("variation.collect", rid, ex, true, func() error {
			_, _, err := wpl.CollectCtx(ctx, rg[0], rg[1])
			return err
		}); err != nil {
			return nil, err
		}
	}
	return sizes, nil
}

var rpcClient = newClient()

// shardRPC posts one shard request to a worker, as the coordinator does.
func shardRPC(addr string, sr coordinator.ShardRequest) (coordinator.ShardResponse, error) {
	var out coordinator.ShardResponse
	body, err := json.Marshal(sr)
	if err != nil {
		return out, err
	}
	resp, err := rpcClient.Post("http://"+addr+"/v1/internal/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("shard status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return out, err
	}
	if out.Part == nil {
		return out, fmt.Errorf("shard answer without a partial")
	}
	return out, nil
}

// facadeAllocs measures the facade calls one request makes, averaged
// over up to 64 ops: allocations and bytes per request from MemStats.
func facadeAllocs(ctx context.Context, w *workload, workers []string) (float64, float64, error) {
	ops := w.ops[:min(64, len(w.ops))]
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, o := range ops {
		var err error
		switch {
		case w.replica != nil:
			sf := predint.Surfaced{Cache: w.replica}
			if o.batch() {
				_, _, err = sf.LinkYieldBatchSurfaceCtx(ctx, o.req.batchRequest())
			} else {
				_, _, err = sf.LinkYieldSurfaceCtx(ctx, o.req.yieldRequest())
			}
		case len(workers) > 0:
			// The front's plan and merge plus every worker's
			// ExecuteShard: the facade work of the whole fleet.
			var pl *predint.YieldShardPlan
			pl, err = predint.YieldShardPlanFor(o.req.yieldRequest())
			if err != nil {
				break
			}
			var parts []variation.Partial
			var resp coordinator.ShardResponse
			for _, rg := range shardRanges(pl, len(workers)) {
				resp, err = coordinator.ExecuteShard(ctx, nil, coordinator.ShardRequest{Op: coordinator.OpSample, Req: o.req.yieldRequest(), Start: rg[0], Count: rg[1]})
				if err != nil {
					break
				}
				parts = append(parts, *resp.Part)
			}
			if err == nil {
				_, _, err = pl.Merge(parts, resp.Shifted)
			}
		default:
			_, err = predint.Surfaced{}.LinkYieldCtx(ctx, o.req.yieldRequest())
		}
		if err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(ops))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// delta sums a counter's window delta over the fleet's processes whose
// metric names match.
func delta(before, after snapshot, match func(string) bool) float64 {
	var d int64
	for i := range after.metrics {
		for n, v := range after.metrics[i] {
			if match(n) {
				d += v - before.metrics[i][n]
			}
		}
	}
	return float64(d)
}

func named(name string) func(string) bool { return func(n string) bool { return n == name } }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the spans, the /metrics deltas of the untraced
// window and the verification's measurements into the per-layer
// metrics, and prints the reconciliation against latency_p50_ms.
func layerMetrics(w *workload, f *fleet, spans []span, before, after snapshot, win window, v verdict,
	e2e map[string]metric, partialBytes []float64, allocs, bytesPer float64) map[string]metric {
	self, weight := selfTimes(spans)
	byName := map[string][]float64{} // span durations, every span
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
	}
	med := func(name string) float64 { return median(byName[name]) }

	// Per request: round trip, and self time per path layer.
	type reqTrace struct {
		rt   float64
		self map[string]float64 // weighted: sums to rt
		work map[string]float64 // unweighted: all processes' time
	}
	reqs := map[int]*reqTrace{}
	var order []int
	for i, s := range spans {
		if !s.Path {
			continue
		}
		r := reqs[s.Req]
		if r == nil {
			r = &reqTrace{self: map[string]float64{}, work: map[string]float64{}}
			reqs[s.Req] = r
			order = append(order, s.Req)
		}
		if s.Parent < 0 {
			r.rt = s.ms()
		}
		r.self[s.Name] += self[i] * weight[i]
		r.work[s.Name] += self[i]
	}
	var rts, overhead []float64
	for _, id := range order {
		rts = append(rts, reqs[id].rt)
		overhead = append(overhead, reqs[id].self["request"])
	}

	// Reconcile on the p50 band: the traced requests whose round trip
	// ranks between the 45th and 55th percentile. Their mean weighted
	// self time per layer sums to their mean round trip.
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].rt < reqs[order[b]].rt })
	band := order[len(order)*9/20 : max(len(order)*11/20, len(order)*9/20+1)]
	layerSum, layerWork := map[string]float64{}, map[string]float64{}
	bandRT := 0.0
	for _, id := range band {
		bandRT += reqs[id].rt
		for n, s := range reqs[id].self {
			layerSum[n] += s
			layerWork[n] += reqs[id].work[n]
		}
	}
	names := make([]string, 0, len(layerSum))
	for n := range layerSum {
		names = append(names, n)
	}
	sort.Strings(names)
	p50 := e2e["latency_p50_ms"].Value
	tracedP50 := median(rts)
	total := 0.0
	fmt.Printf("traced run: %d requests replayed; reconciliation on the p50 band (%d requests):\n", len(order), len(band))
	for _, n := range names {
		ms := layerSum[n] / float64(len(band))
		total += ms
		label := n
		if n == "request" {
			label = "predintd (round trip minus facade)"
		}
		fmt.Printf("  %-36s self %9.4f ms  %5.1f%% of untraced latency_p50_ms %.4f  (work on all processes %.4f ms)\n",
			label, ms, 100*ms/p50, p50, layerWork[n]/float64(len(band)))
	}
	// The root's self time is its round trip minus its children, so the
	// self times sum to the band's mean traced round trip by
	// construction: time no layer accounts for lands in the predintd
	// row, and the remainder against the untraced p50 is minus the
	// tracing overhead.
	unattributed := p50 - total
	fmt.Printf("  %-36s      %9.4f ms\n", "sum of layer self times", total)
	fmt.Printf("  %-36s      %9.4f ms\n", "band mean traced round trip", bandRT/float64(len(band)))
	fmt.Printf("  %-36s      %9.4f ms  (untraced p50 minus the sum: minus the tracing overhead; the predintd row is the residual)\n", "unattributed remainder", unattributed)
	fmt.Printf("  tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms = %.4f ms\n", tracedP50, p50, tracedP50-p50)

	okReqs := float64(len(win.lat))
	entry := len(f.procs) - 1
	entryDelta := func(name string) float64 {
		return float64(after.metrics[entry][name] - before.metrics[entry][name])
	}
	served := 0.0
	shares := map[string]float64{}
	for _, k := range []string{"mc", "qmc", "isle", "ais", "wcd"} {
		shares[k] = entryDelta("predintd.yield_by_" + k)
		served += shares[k]
	}
	hits, misses := entryDelta("predintd.yield_surface_hits"), entryDelta("predintd.yield_surface_misses")
	wcdAll := delta(before, after, func(n string) bool { return strings.HasPrefix(n, "variation.wcd_") })
	workerReqs := delta(before, after, func(n string) bool {
		return strings.HasPrefix(n, "coordinator.worker.") && strings.HasSuffix(n, ".requests")
	})
	workerErrs := delta(before, after, func(n string) bool {
		return strings.HasPrefix(n, "coordinator.worker.") && strings.HasSuffix(n, ".errors")
	})
	var rpcP50us int64
	for n, val := range after.metrics[entry] {
		if strings.HasPrefix(n, "coordinator.worker.") && strings.HasSuffix(n, ".latency.p50_us") && val > rpcP50us {
			rpcP50us = val
		}
	}
	if rpcP50us > 0 {
		fmt.Printf("front /metrics: worker RPC latency p50 bucket %d us (power-of-two histogram)\n", rpcP50us)
	}

	// Per-sample costs from the spans that drew the samples.
	var nsPerSample, aisNsPerSample []float64
	var resized, sizing float64
	for _, r := range v.sizing {
		sizing++
		if r.Resized {
			resized++
		}
	}
	for _, s := range spans {
		if s.Name == "variation.estimate" || s.Name == "variation.collect" {
			o := w.ops[s.Req%len(w.ops)]
			rs, _ := o.decode(o.got)
			n := rs[0].Samples
			if s.Name == "variation.collect" {
				n = rs[0].Samples / len(shardRangesFor(o, w))
			}
			if n == 0 {
				continue
			}
			per := float64(s.End-s.Start) / float64(n)
			switch rs[0].Estimator {
			case "ais":
				aisNsPerSample = append(aisNsPerSample, per)
			case "mc":
				nsPerSample = append(nsPerSample, per)
			}
		}
	}
	var shardsPerReq float64
	if reqs := entryDelta("coordinator.requests"); reqs > 0 {
		shardsPerReq = workerReqs / reqs
	}
	respBytes := make([]float64, len(win.respBytes))
	for i, b := range win.respBytes {
		respBytes[i] = float64(b)
	}
	seen := map[string]bool{}
	repeats := 0.0
	for _, o := range w.ops {
		if seen[o.req.planKey()] {
			repeats++
		}
		seen[o.req.planKey()] = true
	}

	m := map[string]metric{
		"predintd.overhead_ms":       {median(overhead), "ms"},
		"predintd.resp_bytes":        {median(respBytes), "bytes"},
		"predintd.handler_p50_us":    {float64(after.metrics[entry]["predintd.latency.p50_us"]), "us"},
		"predintd.surface_hit_ratio": {ratio(hits, hits+misses), "ratio"},
		"predintd.shed":              {delta(before, after, named("predintd.shed")), "count"},
		"predintd.degraded":          {delta(before, after, named("predintd.degraded")), "count"},

		"facade.yield_ms":         {med("facade.yield"), "ms"},
		"facade.surface_probe_ms": {med("facade.surface_probe"), "ms"},
		"facade.shard_plan_ms":    {med("facade.shard_plan"), "ms"},
		"facade.allocs_per_req":   {allocs, "count"},
		"facade.bytes_per_req":    {bytesPer, "bytes"},

		"buffering.optimize_ms":      {med("buffering.optimize"), "ms"},
		"buffering.repeat_key_share": {repeats / float64(len(w.ops)), "ratio"},

		"variation.estimate_ms":         {med("variation.estimate"), "ms"},
		"variation.ns_per_sample":       {median(nsPerSample), "ns"},
		"variation.samples_per_req":     {ratio(delta(before, after, named("variation.samples_drawn")), okReqs), "count"},
		"variation.size_ms":             {med("variation.size"), "ms"},
		"variation.resized_share":       {ratio(resized, sizing), "ratio"},
		"variation.wcd_ms":              {med("variation.wcd"), "ms"},
		"variation.wcd_certified_share": {ratio(delta(before, after, named("variation.wcd_certified")), wcdAll), "ratio"},
		"variation.ais_ns_per_sample":   {median(aisNsPerSample), "ns"},
		"variation.collect_ms":          {med("variation.collect"), "ms"},
		"variation.merge_ms":            {med("variation.merge"), "ms"},

		"surface.hits":    {delta(before, after, named("surface.hits")), "count"},
		"surface.misses":  {delta(before, after, named("surface.misses")), "count"},
		"surface.records": {delta(before, after, named("surface.records")), "count"},

		"coordinator.estimate_ms":      {med("coordinator.estimate"), "ms"},
		"coordinator.execute_shard_ms": {med("coordinator.execute_shard"), "ms"},
		"coordinator.shard_rpc_ms":     {med("coordinator.shard_rpc"), "ms"},
		"coordinator.shards_per_req":   {shardsPerReq, "count"},
		"coordinator.partial_bytes":    {median(partialBytes), "bytes"},
		"coordinator.local_fallbacks":  {delta(before, after, named("coordinator.local_fallbacks")), "count"},
		"coordinator.hedges":           {delta(before, after, named("coordinator.hedges")), "count"},
		"coordinator.worker_errors":    {workerErrs, "count"},

		"trace.unattributed_ms": {unattributed, "ms"},
		"trace.overhead_ms":     {tracedP50 - p50, "ms"},
	}
	for _, k := range []string{"mc", "qmc", "isle", "ais", "wcd"} {
		m["estimator.share."+k] = metric{ratio(shares[k], served), "ratio"}
	}
	return m
}

func shardRangesFor(o *op, w *workload) [][2]int {
	pl, err := predint.YieldShardPlanFor(o.req.yieldRequest())
	if err != nil {
		return [][2]int{{0, 0}}
	}
	return shardRanges(pl, w.spec.workers)
}
