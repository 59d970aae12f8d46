package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	predint "repro"
	"repro/internal/coordinator"
	"repro/internal/variation"
)

// verdict is the outcome of verifying a workload's answers after the
// window, plus what the recomputation measured on the way.
type verdict struct {
	bad     map[*op]error
	results []wireRes // every verified result (one per candidate)
	sizing  []wireRes // results of yield-target requests
	// partialBytes is the marshaled ShardResponse size per shard.
	partialBytes []float64
}

// verify recomputes every distinct request the server answered and
// requires bit-identity: the cold paths against Surfaced{}.LinkYieldCtx
// (whose answer must not depend on worker or shard count), the warm
// path against the replica surface filled by the same requests, and
// warm grid replays against the cold answers of the fill. Requests are
// recomputed in parallel; the verdict folds them in list order.
func verify(w *workload) verdict {
	ops := w.ops
	v := verdict{bad: map[*op]error{}}
	fillByBody := map[string]*op{}
	for _, o := range w.setup {
		if o.got == nil {
			continue
		}
		fillByBody[string(o.body)] = o
		if o.want != nil {
			if err := compare(o, o.got, o.want); err != nil {
				v.bad[o] = err
			}
		}
	}
	type outcome struct {
		rs  []wireRes
		pb  []float64
		err error
	}
	outs := make([]outcome, len(ops))
	// Failures are collected per op in outs, so the closure never
	// returns an error and parallel's result carries none.
	_ = parallel(len(ops), func(i int) error {
		o := ops[i]
		if o.got == nil {
			return nil
		}
		out := &outs[i]
		out.rs, out.err = o.decode(o.got)
		if out.err == nil {
			out.pb, out.err = recheck(w, o, out.rs, fillByBody[string(o.body)])
		}
		return nil
	})
	for i, o := range ops {
		out := outs[i]
		if o.got == nil {
			continue
		}
		if out.err != nil {
			v.bad[o] = fmt.Errorf("op %d: %v", o.id, out.err)
			continue
		}
		v.partialBytes = append(v.partialBytes, out.pb...)
		v.results = append(v.results, out.rs...)
		if o.req.YieldTarget != nil {
			v.sizing = append(v.sizing, out.rs...)
		}
	}
	return v
}

// recheck verifies one answered op; see verify. For coordinator
// workloads it returns each shard's marshaled response size.
func recheck(w *workload, o *op, rs []wireRes, fill *op) ([]float64, error) {
	if w.replica != nil {
		// yield-warm: the replica's probe answer was taken at
		// generation; a grid replay must also equal its cold fill.
		if err := compare(o, o.got, o.want); err != nil {
			return nil, err
		}
		if fill != nil {
			if err := compare(o, o.got, fill.want); err != nil {
				return nil, fmt.Errorf("warm answer differs from the cold fill: %v", err)
			}
		}
		return nil, nil
	}
	ctx := context.Background()
	res, err := predint.Surfaced{}.LinkYieldCtx(ctx, o.req.yieldRequest())
	if err != nil {
		return nil, fmt.Errorf("in-process: %v", err)
	}
	if err := sameAnswer(rs[0], res); err != nil {
		return nil, err
	}
	if o.want != nil {
		if err := sameAnswer(rs[0], o.want[0]); err != nil {
			return nil, fmt.Errorf("against the generation-time answer: %v", err)
		}
	}
	if w.spec.workers == 0 {
		return nil, nil
	}
	pb, err := shardReplay(ctx, o, w.spec.workers, rs[0])
	if err != nil {
		return nil, fmt.Errorf("shard replay: %v", err)
	}
	return pb, nil
}

// compare checks a response body against in-process answers.
func compare(o *op, body []byte, want []predint.YieldResult) error {
	rs, err := o.decode(body)
	if err != nil {
		return err
	}
	if len(rs) != len(want) {
		return fmt.Errorf("op %d: %d results, in-process %d", o.id, len(rs), len(want))
	}
	for i := range rs {
		if err := sameAnswer(rs[i], want[i]); err != nil {
			return fmt.Errorf("op %d result %d: %v", o.id, i, err)
		}
	}
	return nil
}

// shardRanges splits a plan's sample range the way the coordinator
// does with w ready workers and no -shard-samples: two waves of w
// shards, each rounded up to a batch multiple.
func shardRanges(pl *predint.YieldShardPlan, w int) [][2]int {
	total, batch := pl.Samples(), pl.Batch()
	size := (total + 2*w - 1) / (2 * w)
	if rem := size % batch; rem != 0 {
		size += batch - rem
	}
	var out [][2]int
	for start := 0; start < total; start += size {
		out = append(out, [2]int{start, min(size, total-start)})
	}
	return out
}

// shardReplay runs the request's shards in-process through
// coordinator.ExecuteShard, merges them, and requires the merged answer
// to equal the server's. It returns each shard's marshaled response
// size.
func shardReplay(ctx context.Context, o *op, workers int, got wireRes) ([]float64, error) {
	req := o.req.yieldRequest()
	pl, err := predint.YieldShardPlanFor(req)
	if err != nil {
		return nil, err
	}
	var parts []variation.Partial
	var sizes []float64
	shifted := false
	for _, rg := range shardRanges(pl, workers) {
		resp, err := coordinator.ExecuteShard(ctx, nil, coordinator.ShardRequest{Op: coordinator.OpSample, Req: req, Start: rg[0], Count: rg[1]})
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, float64(len(b)))
		parts = append(parts, *resp.Part)
		shifted = resp.Shifted
	}
	est, _, err := pl.Merge(parts, shifted)
	if err != nil {
		return nil, err
	}
	return sizes, sameAnswer(got, pl.Result(est))
}

// quartiles returns the nearest-rank 25th, 50th and 75th percentiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return [3]float64{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}
