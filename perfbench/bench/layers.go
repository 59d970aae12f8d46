package main

import (
	"fmt"

	predint "repro"
	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/variation"
	"repro/internal/wire"
)

// reqPlan is a request resolved into the inputs of the layers below
// the facade, derived the way the facade's own planner derives them:
// the segment and buffering options Optimize takes, the scenario and
// options the variation kernel takes. The traced run calls each layer
// through these, and checks that the replayed layers reproduce the
// facade's answer bit for bit.
type reqPlan struct {
	tc      *tech.Technology
	coeffs  *model.Coefficients
	seg     wire.Segment
	bufOpts buffering.Options
	space   variation.Space
	mc      variation.YieldOptions
	target  float64
	slew    float64
}

func planOf(w wireReq) (*reqPlan, error) {
	tc, err := tech.Lookup(w.Tech)
	if err != nil {
		return nil, err
	}
	coeffs, err := model.Default(tc.Name)
	if err != nil {
		return nil, err
	}
	style := wire.SWSS
	switch w.Style {
	case "", "swss":
	case "shielded":
		style = wire.Shielded
	case "staggered":
		style = wire.Staggered
	default:
		return nil, fmt.Errorf("unknown style %q", w.Style)
	}
	weight := predint.DefaultPowerWeight
	if w.PowerWeight != nil {
		weight = *w.PowerWeight
	}
	target := 1 / tc.Clock
	if w.TargetPS != nil {
		target = *w.TargetPS * 1e-12
	}
	samples := predint.DefaultYieldSamples
	if w.Samples != nil {
		samples = *w.Samples
	}
	opt := func(p *float64) float64 {
		if p == nil {
			return 0
		}
		return *p
	}
	kind, err := estimator.Parse(w.Estimator)
	if err != nil {
		return nil, err
	}
	slew := predint.DefaultInputSlewPS * 1e-12
	return &reqPlan{
		tc:     tc,
		coeffs: coeffs,
		seg:    wire.NewSegment(tc, w.LengthMM*1e-3, style),
		bufOpts: buffering.Options{
			Coeffs:      coeffs,
			InputSlew:   slew,
			Power:       model.PowerParams{Activity: predint.DefaultActivityFactor, Freq: tc.Clock},
			PowerWeight: weight,
		},
		space: variation.DefaultSpace().Scaled(1),
		mc: variation.YieldOptions{
			Samples:     samples,
			RelErr:      opt(w.RelErr),
			AbsErr:      opt(w.AbsErr),
			Workers:     w.Workers,
			Seed:        w.Seed,
			Estimator:   kind,
			TargetSigma: opt(w.TargetSigma),
		},
		target: target,
		slew:   slew,
	}, nil
}

func (p *reqPlan) scenario(des buffering.Design) *variation.LinkScenario {
	return &variation.LinkScenario{
		Base:   p.tc,
		Coeffs: p.coeffs,
		Space:  p.space,
		Spec:   model.LineSpec{Kind: des.Kind, Size: des.Size, N: des.N, Segment: p.seg, InputSlew: p.slew},
		Target: p.target,
	}
}

func (p *reqPlan) sizing(yt float64) variation.SizingOptions {
	return variation.SizingOptions{
		Buffering:   p.bufOpts,
		Space:       p.space,
		Target:      p.target,
		YieldTarget: yt,
		MC:          p.mc,
	}
}
