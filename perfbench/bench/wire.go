package main

import (
	"encoding/json"
	"fmt"
	"math"

	predint "repro"
)

// wireReq is the JSON body of POST /v1/yield and /v1/yield/batch, with
// the field names predintd decodes (it rejects unknown fields, so
// Candidates must stay empty on /v1/yield).
type wireReq struct {
	Tech        string     `json:"tech"`
	LengthMM    float64    `json:"length_mm"`
	Style       string     `json:"style,omitempty"`
	PowerWeight *float64   `json:"power_weight,omitempty"`
	TargetPS    *float64   `json:"target_ps,omitempty"`
	Samples     *int       `json:"samples,omitempty"`
	RelErr      *float64   `json:"rel_err,omitempty"`
	AbsErr      *float64   `json:"abs_err,omitempty"`
	Seed        uint64     `json:"seed,omitempty"`
	Workers     int        `json:"workers,omitempty"`
	Estimator   string     `json:"estimator,omitempty"`
	TargetSigma *float64   `json:"target_sigma,omitempty"`
	YieldTarget *float64   `json:"yield_target,omitempty"`
	NoSurface   bool       `json:"no_surface,omitempty"`
	Candidates  []wireCand `json:"candidates,omitempty"`
}

type wireCand struct {
	RepeaterSize float64 `json:"repeater_size"`
	Repeaters    int     `json:"repeaters"`
}

// wireRes is one yield result as predintd encodes it.
type wireRes struct {
	Repeaters    int     `json:"repeaters"`
	RepeaterSize float64 `json:"repeater_size"`
	FailProb     float64 `json:"fail_prob"`
	StdErr       float64 `json:"std_err"`
	Samples      int     `json:"samples"`
	Estimator    string  `json:"estimator"`
	Resized      bool    `json:"resized"`
	Degraded     bool    `json:"degraded"`
	Source       string  `json:"source"`
}

type wireBatchRes struct {
	Results []wireRes `json:"results"`
}

func f64(v float64) *float64 { return &v }
func intp(v int) *int        { return &v }

// yieldRequest maps the wire body onto the facade request exactly as
// predintd does.
func (w wireReq) yieldRequest() predint.YieldRequest {
	return predint.YieldRequest{
		Tech:        w.Tech,
		LengthMM:    w.LengthMM,
		Style:       predint.Style(w.Style),
		PowerWeight: w.PowerWeight,
		TargetPS:    w.TargetPS,
		Samples:     w.Samples,
		RelErr:      w.RelErr,
		AbsErr:      w.AbsErr,
		Seed:        w.Seed,
		Workers:     w.Workers,
		Estimator:   w.Estimator,
		TargetSigma: w.TargetSigma,
		YieldTarget: w.YieldTarget,
		NoSurface:   w.NoSurface,
	}
}

func (w wireReq) batchRequest() predint.YieldBatchRequest {
	b := predint.YieldBatchRequest{YieldRequest: w.yieldRequest()}
	for _, c := range w.Candidates {
		b.Candidates = append(b.Candidates, predint.YieldCandidate{RepeaterSize: c.RepeaterSize, Repeaters: c.Repeaters})
	}
	return b
}

// planKey names the request's link class: what a per-plan memo of the
// buffering design would be keyed on (technology, geometry, style,
// power weight; slew is left at its default by every workload).
func (w wireReq) planKey() string {
	pw := -1.0
	if w.PowerWeight != nil {
		pw = *w.PowerWeight
	}
	return fmt.Sprintf("%s|%v|%s|%v", w.Tech, w.LengthMM, w.Style, pw)
}

// op is one distinct benchmark request. The timed window cycles
// through a workload's ops; every answer is checked against the op's
// required tier and rung, against the first answer the server gave
// for the op (byte for byte), and after the window against the
// in-process facade.
type op struct {
	id     int
	path   string
	req    wireReq
	body   []byte
	source string // required tier ("mc" or "surface")
	rung   string // required estimator rung
	// want holds the in-process answer when generation computed it
	// (placement, or the warm workload's replica surface).
	want []predint.YieldResult
	// got is the first response body the server returned for the op.
	got []byte
}

func newOp(id int, path string, req wireReq, source, rung string) *op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return &op{id: id, path: path, req: req, body: body, source: source, rung: rung}
}

func (o *op) batch() bool { return o.path == "/v1/yield/batch" }

// decode parses a response body into its results (one for /v1/yield,
// one per candidate for a batch).
func (o *op) decode(body []byte) ([]wireRes, error) {
	if o.batch() {
		var b wireBatchRes
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		if len(b.Results) != len(o.req.Candidates) {
			return nil, fmt.Errorf("batch answered %d results for %d candidates", len(b.Results), len(o.req.Candidates))
		}
		return b.Results, nil
	}
	var r wireRes
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return []wireRes{r}, nil
}

// checkTier validates one answer's serving tier and rung.
func (o *op) checkTier(rs []wireRes) error {
	for i, r := range rs {
		switch {
		case r.Degraded:
			return fmt.Errorf("op %d result %d degraded", o.id, i)
		case r.Source != o.source:
			return fmt.Errorf("op %d result %d served by tier %q, want %q", o.id, i, r.Source, o.source)
		case r.Estimator != o.rung:
			return fmt.Errorf("op %d result %d served by rung %q, want %q", o.id, i, r.Estimator, o.rung)
		}
	}
	return nil
}

// sameAnswer requires bit-identity on the fields the engine promises
// not to depend on worker or shard count.
func sameAnswer(got wireRes, want predint.YieldResult) error {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !eq(got.FailProb, want.FailProb):
		return fmt.Errorf("fail_prob %v, in-process %v", got.FailProb, want.FailProb)
	case !eq(got.StdErr, want.StdErr):
		return fmt.Errorf("std_err %v, in-process %v", got.StdErr, want.StdErr)
	case got.Samples != want.Samples:
		return fmt.Errorf("samples %d, in-process %d", got.Samples, want.Samples)
	case got.Repeaters != want.Repeaters:
		return fmt.Errorf("repeaters %d, in-process %d", got.Repeaters, want.Repeaters)
	case !eq(got.RepeaterSize, want.RepeaterSize):
		return fmt.Errorf("repeater_size %v, in-process %v", got.RepeaterSize, want.RepeaterSize)
	case got.Estimator != want.Estimator:
		return fmt.Errorf("estimator %q, in-process %q", got.Estimator, want.Estimator)
	case got.Resized != want.Resized:
		return fmt.Errorf("resized %v, in-process %v", got.Resized, want.Resized)
	}
	return nil
}
