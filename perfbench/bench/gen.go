package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	predint "repro"
	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/surface"
	"repro/internal/variation"
)

// workload is one generated benchmark input: how to start the servers,
// the untimed set-up requests, and the timed request list. Everything
// is a pure function of the seed, made before any timing starts.
type workload struct {
	spec fleetSpec
	// setup is sent after readiness and before the window: warm-up,
	// or the surface fill of yield-warm. It is part of setup_s.
	setup []*op
	// ops is the timed list, cycled in order.
	ops []*op
	// once ends the window at the end of ops rather than cycling, for
	// a list whose point is that no plan key repeats.
	once bool
	// replica is yield-warm's in-process surface, filled by the same
	// requests in the same order as the server's.
	replica *surface.Cache
}

var workloadNames = []string{"yield-mc", "yield-warm", "size-deep", "shard-fanout"}

func generate(name string, seed uint64) (*workload, error) {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	switch name {
	case "yield-mc":
		return genYieldMC(r)
	case "yield-warm":
		return genYieldWarm(r)
	case "size-deep":
		return genSizeDeep(r)
	case "shard-fanout":
		return genShardFanout(r)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

type linkClass struct {
	tech   string
	length float64
	style  string
}

func nominalPS(c linkClass, weight *float64) (float64, error) {
	res, err := predint.LinkYieldNominalCtx(context.Background(), predint.YieldRequest{
		Tech: c.tech, LengthMM: c.length, Style: predint.Style(c.style), PowerWeight: weight,
	})
	return res.NominalDelay * 1e12, err
}

// seedOf draws a nonzero sampling seed.
func seedOf(r *rand.Rand) uint64 { return r.Uint64() | 1 }

// classTargets builds a balanced list of (class, factor) pairs: reps
// blocks, each holding every pair once in a seeded order. The request
// mix is the same for every seed, and every prefix of whole blocks has
// it too, so a window that ends mid-list is not biased toward the
// list's head; only the order, the sampling seeds and a small target
// jitter change with the seed.
func classTargets(r *rand.Rand, classes, factors, reps int) [][2]int {
	var out [][2]int
	for k := 0; k < reps; k++ {
		block := make([][2]int, 0, classes*factors)
		for c := 0; c < classes; c++ {
			for f := 0; f < factors; f++ {
				block = append(block, [2]int{c, f})
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// ---- yield-mc ----

var mcClasses = []linkClass{
	{"90nm", 4, "swss"}, {"90nm", 7, "shielded"}, {"65nm", 3, "swss"}, {"65nm", 6, "staggered"},
	{"45nm", 2.5, "swss"}, {"45nm", 5, "shielded"}, {"32nm", 2, "swss"}, {"32nm", 4, "staggered"},
}

const (
	mcSamples   = 2048
	mcListReps  = 32 // 8 classes × 4 targets × 32 = 1024 timed ops
	mcWarmupOps = 64
)

func genYieldMC(r *rand.Rand) (*workload, error) {
	factors := []float64{1.00, 1.03, 1.06, 1.10}
	noms := make([]float64, len(mcClasses))
	for i, c := range mcClasses {
		var err error
		if noms[i], err = nominalPS(c, nil); err != nil {
			return nil, err
		}
	}
	w := &workload{spec: fleetSpec{}}
	mk := func(id int, ct [2]int) *op {
		c := mcClasses[ct[0]]
		f := factors[ct[1]] * (1 + 0.004*(r.Float64()-0.5))
		return newOp(id, "/v1/yield", wireReq{
			Tech: c.tech, LengthMM: c.length, Style: c.style,
			TargetPS: f64(noms[ct[0]] * f), Samples: intp(mcSamples),
			Seed: seedOf(r), Workers: 1, Estimator: "mc", NoSurface: true,
		}, "mc", "mc")
	}
	for i, ct := range classTargets(r, len(mcClasses), len(factors), 2)[:mcWarmupOps] {
		w.setup = append(w.setup, mk(-1-i, ct))
	}
	for i, ct := range classTargets(r, len(mcClasses), len(factors), mcListReps) {
		w.ops = append(w.ops, mk(i, ct))
	}
	return w, nil
}

// ---- shard-fanout ----

var shardClasses = []linkClass{
	{"90nm", 6, "swss"}, {"65nm", 5, "shielded"}, {"45nm", 4, "swss"}, {"32nm", 3, "staggered"},
}

const (
	shardSamples  = 65536
	shardListReps = 2 // 4 classes × 8 targets × 2 = 64 timed ops
)

func genShardFanout(r *rand.Rand) (*workload, error) {
	// Targets from the nominal delay up: fail probabilities from ~0.5
	// down to ~0, so shard partials range from tens of kilobytes of
	// failure indices to almost empty.
	factors := []float64{1.00, 1.02, 1.05, 1.08, 1.12, 1.18, 1.30, 1.60}
	noms := make([]float64, len(shardClasses))
	for i, c := range shardClasses {
		var err error
		if noms[i], err = nominalPS(c, nil); err != nil {
			return nil, err
		}
	}
	w := &workload{spec: fleetSpec{
		workers:     2,
		flags:       []string{"-no-surface"},
		workerFlags: []string{"-no-surface"},
	}}
	mk := func(id int, ct [2]int) *op {
		c := shardClasses[ct[0]]
		f := factors[ct[1]] * (1 + 0.004*(r.Float64()-0.5))
		return newOp(id, "/v1/yield", wireReq{
			Tech: c.tech, LengthMM: c.length, Style: c.style,
			TargetPS: f64(noms[ct[0]] * f), Samples: intp(shardSamples),
			Seed: seedOf(r), Workers: 1, Estimator: "mc", NoSurface: true,
		}, "mc", "mc")
	}
	// Sixteen warm-up requests: set-up is mostly their time, and fewer
	// let one slow first request on a fresh process move setup_s.
	for i, ct := range classTargets(r, len(shardClasses), len(factors), 1)[:16] {
		w.setup = append(w.setup, mk(-1-i, ct))
	}
	for i, ct := range classTargets(r, len(shardClasses), len(factors), shardListReps) {
		w.ops = append(w.ops, mk(i, ct))
	}
	return w, nil
}

// ---- yield-warm ----

const (
	warmGridPoints = 8
	// warmBatchRepeats puts each batch in the timed list three times,
	// so batches are ~28% of it: p50 falls among single-link answers
	// and p90 well inside the batch mode, each away from the boundary.
	warmBatchRepeats = 3
	// warmAbsErr is the tolerance every warm request carries: it stops
	// the cold fill early and admits interpolated answers whose band
	// is within it.
	warmAbsErr = 0.05
)

func genYieldWarm(r *rand.Rand) (*workload, error) {
	classes := mcClasses[:6]
	ctx := context.Background()
	w := &workload{replica: surface.New(surface.Options{})}
	sf := predint.Surfaced{Cache: w.replica}
	base := func(c linkClass, nom, f float64, seed uint64) wireReq {
		return wireReq{
			Tech: c.tech, LengthMM: c.length, Style: c.style,
			TargetPS: f64(nom * f), Samples: intp(mcSamples), AbsErr: f64(warmAbsErr),
			Seed: seed, Workers: 1, Estimator: "mc",
		}
	}
	grid := func(j int) float64 { return 1 + 0.03*float64(j) }

	var fill, replays, offGrid []*op
	for _, c := range classes {
		nom, err := nominalPS(c, nil)
		if err != nil {
			return nil, err
		}
		seed := seedOf(r)
		for j := 0; j < warmGridPoints; j++ {
			req := base(c, nom, grid(j), seed)
			o := newOp(0, "/v1/yield", req, "mc", "mc")
			res, err := sf.LinkYieldCtx(ctx, req.yieldRequest())
			if err != nil {
				return nil, err
			}
			o.want = []predint.YieldResult{res}
			fill = append(fill, o)
			replays = append(replays, newOp(0, "/v1/yield", req, "surface", "mc"))
		}
		// Two 16-candidate batches per class around the nominal design,
		// at targets between grid points so no batch point lands on a
		// grid point of the nominal design's curve.
		des, err := predint.LinkYieldNominalCtx(ctx, predint.YieldRequest{
			Tech: c.tech, LengthMM: c.length, Style: predint.Style(c.style),
		})
		if err != nil {
			return nil, err
		}
		var cands []wireCand
		for _, s := range []float64{0.5, 0.75, 1, 1.5} {
			for n := des.Repeaters; n < des.Repeaters+4; n++ {
				cands = append(cands, wireCand{RepeaterSize: des.RepeaterSize * s, Repeaters: n})
			}
		}
		for _, j := range []int{0, 2} {
			req := base(c, nom, grid(j)+0.015, seed^0xb)
			req.Candidates = cands
			o := newOp(0, "/v1/yield/batch", req, "mc", "mc")
			res, err := sf.LinkYieldBatchCtx(ctx, req.batchRequest())
			if err != nil {
				return nil, err
			}
			o.want = res.Results
			fill = append(fill, o)
			for k := 0; k < warmBatchRepeats; k++ {
				replays = append(replays, newOp(0, "/v1/yield/batch", req, "surface", "mc"))
			}
		}
		// Off-grid targets strictly inside a bracketing pair: kept only
		// when the replica answers them from the surface.
		for j := 0; j+1 < warmGridPoints; j++ {
			for k := 0; k < 2; k++ {
				u := 0.15 + 0.7*r.Float64()
				req := base(c, nom, grid(j)+0.03*u, seed)
				res, ok, err := sf.LinkYieldSurfaceCtx(ctx, req.yieldRequest())
				if err != nil {
					return nil, err
				}
				if ok {
					o := newOp(0, "/v1/yield", req, "surface", "mc")
					o.want = []predint.YieldResult{res}
					offGrid = append(offGrid, o)
				}
			}
		}
	}
	// Grid replays and batch replays take their answers from the
	// replica too, so verification can hold them to the fill's cold
	// answers as well.
	for _, o := range replays {
		if o.batch() {
			res, ok, err := sf.LinkYieldBatchSurfaceCtx(ctx, o.req.batchRequest())
			if err != nil || !ok {
				return nil, fmt.Errorf("yield-warm: replica misses a batch grid point (%v)", err)
			}
			o.want = res.Results
		} else {
			res, ok, err := sf.LinkYieldSurfaceCtx(ctx, o.req.yieldRequest())
			if err != nil || !ok {
				return nil, fmt.Errorf("yield-warm: replica misses a grid point (%v)", err)
			}
			o.want = []predint.YieldResult{res}
		}
	}
	for i, o := range fill {
		o.id = -1 - i
	}
	w.setup = fill
	ops := append(replays, offGrid...)
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i, o := range ops {
		o.id = i
	}
	w.ops = ops
	return w, nil
}

// ---- size-deep ----

// A size-deep unit is 12 requests in fixed proportions: 3 sizing
// requests that keep the nominal design, 3 that resize it, and 2 each
// of deep-sigma requests answered by a WCD certificate, by ISLE, and by
// AIS. Latency modes, fastest first: WCD (~0.3 ms, 1/6), ISLE
// (~0.6 ms, 1/6), kept sizing (~1 ms, 1/4), then resized sizing and AIS
// (3-15 ms, 5/12). p50 sits inside the kept-sizing mode and p90 inside
// the slow tail, each at least 8 points of rank from a mode boundary.
var deepUnit = []string{"keep", "keep", "keep", "resize", "resize", "resize", "wcd", "wcd", "isle", "isle", "ais", "ais"}

const (
	// 7200 timed ops: about twice what one 15 s window sends, so a
	// program up to twice as fast still spends the whole window on
	// distinct links; past that the window ends with the list.
	deepUnits       = 600
	deepWarmupUnits = 4
	deepYieldTarget = 0.95
	deepPowerWeight = 0.8
	deepRelErr      = 0.1
)

var deepTechs = []string{"90nm", "65nm", "45nm", "32nm"}
var deepStyles = []string{"swss", "shielded", "staggered"}

func genSizeDeep(r *rand.Rand) (*workload, error) {
	units := deepUnits + deepWarmupUnits
	seeds := make([]uint64, units)
	for u := range seeds {
		seeds[u] = r.Uint64()
	}
	// Units are placed in parallel, each from its own seed, so the
	// list does not depend on scheduling.
	placed := make([][]*op, units)
	err := parallel(units, func(u int) error {
		var err error
		placed[u], err = placeUnit(u, units, rand.New(rand.NewPCG(seeds[u], 0x5eed)))
		return err
	})
	if err != nil {
		return nil, err
	}
	var all []*op
	for _, unit := range placed {
		all = append(all, unit...)
	}
	w := &workload{spec: fleetSpec{flags: []string{"-no-surface"}}, once: true}
	w.setup = all[:deepWarmupUnits*len(deepUnit)]
	w.ops = all[deepWarmupUnits*len(deepUnit):]
	for i, o := range w.setup {
		o.id = -1 - i
	}
	for i, o := range w.ops {
		o.id = i
	}
	return w, nil
}

// placeUnit places the 12 requests of unit u of units. Every request
// gets its own link length in [2, 7] mm, so no two share a plan key:
// slot i sits at the van der Corput point of u shifted by i/12, plus
// jitter within its stratum, so any run of whole units covers the
// length range evenly.
func placeUnit(u, units int, r *rand.Rand) ([]*op, error) {
	length := func(i int) float64 {
		x := vanDerCorput(u) + float64(i)/float64(len(deepUnit)) + r.Float64()/float64(units*len(deepUnit))
		return 2 + 5*(x-math.Floor(x))
	}
	unit := make([]*op, 0, len(deepUnit))
	for i, mode := range deepUnit {
		c := linkClass{
			tech:  deepTechs[(u+i)%len(deepTechs)],
			style: deepStyles[(u*len(deepUnit)+i)%len(deepStyles)],
		}
		var o *op
		var err error
		// A length for which no tried target gives the mode is
		// replaced by a fresh one in the same stratum.
		for tries := 0; o == nil && tries < 8; tries++ {
			c.length = length(i)
			if mode == "keep" || mode == "resize" {
				o, err = placeSizing(r, c, mode == "resize")
			} else {
				o, err = placeDeep(r, c, mode)
			}
			if err != nil {
				return nil, err
			}
		}
		if o == nil {
			return nil, fmt.Errorf("size-deep: could not place a %s request", mode)
		}
		unit = append(unit, o)
	}
	// Shuffle within the unit only, so every prefix of whole units has
	// the exact mode mix.
	r.Shuffle(len(unit), func(i, j int) { unit[i], unit[j] = unit[j], unit[i] })
	return unit, nil
}

// parallel runs fn(0..n-1) on one goroutine per CPU and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// vanDerCorput is the base-2 radical inverse of n: 0, 1/2, 1/4, 3/4, ...
func vanDerCorput(n int) float64 {
	x, f := 0.0, 0.5
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			x += f
		}
		f /= 2
	}
	return x
}

// placeSizing sets a sizing request's delay target so the nominal
// design keeps (or misses) the yield target while some candidate still
// reaches it. It returns nil when no tried target gives the mode.
func placeSizing(r *rand.Rand, c linkClass, resize bool) (*op, error) {
	weight := deepPowerWeight
	nom, err := nominalPS(c, &weight)
	if err != nil {
		return nil, err
	}
	factors := []float64{1.20, 1.26, 1.34, 1.45}
	if resize {
		factors = []float64{1.06, 1.08, 1.04, 1.10, 1.02, 1.12}
	}
	seed := seedOf(r)
	for _, f := range factors {
		req := wireReq{
			Tech: c.tech, LengthMM: c.length, Style: c.style, PowerWeight: f64(weight),
			TargetPS: f64(nom * f), Samples: intp(mcSamples), Seed: seed, Workers: 1,
			YieldTarget: f64(deepYieldTarget), NoSurface: true,
		}
		res, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req.yieldRequest())
		if err != nil || res.Resized != resize {
			continue // infeasible, or the other mode
		}
		o := newOp(0, "/v1/yield", req, "mc", res.Estimator)
		o.want = []predint.YieldResult{res}
		return o, nil
	}
	return nil, nil
}

// placeDeep sets a deep-sigma request's target from the link's
// worst-case distance β: β well past the sigma level for a certified
// answer, β at the sigma level (inconclusive, so the routed rung
// samples) otherwise. The sigma level picks the rung: ISLE below
// ~4.26σ, AIS above.
func placeDeep(r *rand.Rand, c linkClass, rung string) (*op, error) {
	var sigma float64
	switch rung {
	case "wcd":
		sigma = 3 + 3*r.Float64()
	case "isle":
		sigma = 3.2 + 0.9*r.Float64()
	case "ais":
		sigma = 4.5 + 1.5*r.Float64()
	}
	req := wireReq{
		Tech: c.tech, LengthMM: c.length, Style: c.style,
		Seed: seedOf(r), Workers: 1, TargetSigma: f64(sigma), RelErr: f64(deepRelErr), NoSurface: true,
	}
	p, err := planOf(req)
	if err != nil {
		return nil, err
	}
	des, err := buffering.Optimize(p.seg, p.bufOpts)
	if err != nil {
		return nil, err
	}
	beta := sigma
	if rung == "wcd" {
		beta = sigma + estimator.DefaultWCDMargin + 0.5
	}
	sc := p.scenario(des)
	lo, hi := des.Delay, 3*des.Delay
	for i := 0; i < 24; i++ {
		sc.Target = (lo + hi) / 2
		b, err := variation.WCDForScenarioCtx(context.Background(), sc)
		if err != nil {
			return nil, err
		}
		if b.Beta < beta {
			lo = sc.Target
		} else {
			hi = sc.Target
		}
	}
	req.TargetPS = f64(hi * 1e12)
	res, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req.yieldRequest())
	if err != nil || res.Estimator != rung {
		return nil, nil
	}
	o := newOp(0, "/v1/yield", req, "mc", rung)
	o.want = []predint.YieldResult{res}
	return o, nil
}
