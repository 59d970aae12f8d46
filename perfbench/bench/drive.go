package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"time"
)

// newClient returns an HTTP client that keeps exactly one keep-alive
// connection per host, so a closed loop reuses one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConns:        8,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// call sends one op and returns the status, body, and client latency
// from writing the request to reading the last byte.
func call(cl *http.Client, base string, o *op) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := cl.Post(base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	return resp.StatusCode, body, lat, err
}

// check validates one answer: status 200, not degraded, the required
// tier and rung, and byte-identical to the first answer the op got.
func check(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("op %d: status %d: %s", o.id, status, bytes.TrimSpace(body))
	}
	if o.got != nil {
		if !bytes.Equal(o.got, body) {
			return fmt.Errorf("op %d: answer differs from its first answer", o.id)
		}
		return nil
	}
	rs, err := o.decode(body)
	if err != nil {
		return fmt.Errorf("op %d: %v", o.id, err)
	}
	if err := o.checkTier(rs); err != nil {
		return err
	}
	o.got = body
	return nil
}

// window is the outcome of one closed-loop timed window.
type window struct {
	attempted, failed int
	wall              time.Duration
	lat               []time.Duration // successful requests only
	done              []time.Duration // completion offsets of successful requests
	respBytes         []int
	sent              map[*op]int
	errs              []string
	// bounds are the slice boundaries (offsets from the start); ticks
	// and steal are the fleet's CPU ticks and the machine's steal ticks
	// read at each of them.
	bounds       []time.Duration
	ticks, steal []int64
}

// drive cycles through ops over one keep-alive connection, one request
// in flight, until dur has passed — or, with once, until every op has
// been sent, if that comes first. The window is cut into equal time
// slices; at each boundary, between two requests, ticks reads the
// fleet's CPU ticks.
func drive(cl *http.Client, base string, ops []*op, once bool, dur time.Duration, slices int, ticks func() int64) window {
	w := window{sent: map[*op]int{}}
	start := time.Now()
	mark := func() {
		w.bounds = append(w.bounds, time.Since(start))
		w.ticks = append(w.ticks, ticks())
		w.steal = append(w.steal, stealTicks())
	}
	mark()
	for i := 0; ; i++ {
		if time.Since(start) >= dur*time.Duration(len(w.bounds))/time.Duration(slices) {
			if mark(); len(w.bounds) > slices {
				break
			}
		}
		if once && i == len(ops) {
			mark()
			break
		}
		o := ops[i%len(ops)]
		w.attempted++
		status, body, lat, err := call(cl, base, o)
		if err == nil {
			err = check(o, status, body)
		}
		if err != nil {
			w.failed++
			if len(w.errs) < 5 {
				w.errs = append(w.errs, err.Error())
			}
			continue
		}
		w.sent[o]++
		w.lat = append(w.lat, lat)
		w.done = append(w.done, time.Since(start))
		w.respBytes = append(w.respBytes, len(body))
	}
	w.wall = w.bounds[len(w.bounds)-1]
	return w
}

// slice is one time slice of a window.
type slice struct {
	dur          time.Duration
	lat          []time.Duration // successful requests completed in it
	ticks, steal int64
	kept         bool
}

// slices splits the window at its boundaries (requests belong to the
// slice they completed in) and marks the keep slices that lost the
// least CPU to steal, ties going to the earlier slice.
func (w window) slices(keep int) []slice {
	var out []slice
	j := 0
	for k := 1; k < len(w.bounds); k++ {
		s := slice{
			dur:   w.bounds[k] - w.bounds[k-1],
			ticks: w.ticks[k] - w.ticks[k-1],
			steal: w.steal[k] - w.steal[k-1],
		}
		for ; j < len(w.done) && w.done[j] < w.bounds[k]; j++ {
			s.lat = append(s.lat, w.lat[j])
		}
		out = append(out, s)
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return out[order[a]].steal < out[order[b]].steal })
	for _, i := range order[:min(keep, len(order))] {
		out[i].kept = true
	}
	return out
}

// figures pools the requests of the given slices: throughput, p50, p90
// and fleet CPU per request.
func figures(sl []slice) (rps, p50, p90, cpuMs float64) {
	var lat []time.Duration
	var dur time.Duration
	var ticks int64
	for _, s := range sl {
		lat = append(lat, s.lat...)
		dur += s.dur
		ticks += s.ticks
	}
	ms := sortedMs(lat)
	return float64(len(lat)) / dur.Seconds(), quantile(ms, 0.5), quantile(ms, 0.9),
		perReq(float64(ticks)*1000/clockTicks, len(lat))
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
