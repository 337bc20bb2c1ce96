package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// readRoutes are the server routes of the reads p50_ms and p99_ms
// cover; routeMetric names each route's handler-time metric.
var (
	readRoutes  = []string{"GET /neighbors", "POST /neighbors", "POST /batch/neighbors", "GET /hasedge"}
	routeMetric = map[string]string{
		"GET /neighbors":        "serve.neighbors_us",
		"POST /neighbors":       "serve.batch_json_us",
		"POST /batch/neighbors": "serve.batch_binary_us",
		"GET /hasedge":          "serve.hasedge_us",
		"GET /pagerank":         "serve.pagerank_us",
		"POST /update":          "serve.update_us",
	}
)

// nominalMetrics derives the metrics of the nominal phase from the
// generator's records and the servers' /stats and CPU deltas.
func (r *runner) nominalMetrics(before, after *serverSnap) {
	res := r.nominal
	isPageRank := func(o opKind) bool { return o == opPageRank }
	isUpdate := func(o opKind) bool { return o == opUpdate }
	r.m["p50_ms"] = windowMedian(res, r.cfg.Windows, opKind.isRead, 0.5)
	r.m["p99_ms"] = windowMedian(res, r.cfg.Windows, opKind.isRead, 0.99)
	r.m["pagerank_p50_ms"] = windowMedian(res, r.cfg.Windows, isPageRank, 0.5)
	if r.w.Serve == "mutable" {
		r.m["write_p50_ms"] = windowMedian(res, r.cfg.Windows, isUpdate, 0.5)
		r.m["write_p99_ms"] = ms(opHist(res.reqs, isUpdate).Quantile(0.99))
	}

	r.m["gen.dispatch_lag_p99_us"] = us(lagHist(res).Quantile(0.99))
	r.m["gen.wake_lag_p99_us"] = us(res.wake.Quantile(0.99))
	r.m["gen.cpu_s"] = res.cpu.Seconds()
	svc := serviceHist(res)
	r.m["client.service_p50_us"] = us(svc.Quantile(0.5))

	var readN, pagerankN int
	versions := map[string]bool{}
	for i := range res.reqs {
		q := &res.reqs[i]
		switch {
		case q.op.isRead():
			readN++
		case q.op == opPageRank:
			pagerankN++
			versions[q.version] = true
		}
	}
	if pagerankN > 0 {
		r.m["serve.pagerank_recompute_ratio"] = float64(len(versions)) / float64(pagerankN)
	}

	// Handler time per read, from the server answering the generator;
	// on fed-read from the shards behind the coordinator, which exports
	// no per-route timings of its own.
	var handlerUs float64
	if st0, st1 := before.stats[0], after.stats[0]; st0 != nil && st1 != nil {
		var n uint64
		var sum float64
		for route, name := range routeMetric {
			c, s := routeDelta(st0, st1, route)
			r.m[name] = meanUs(c, s)
			for _, rr := range readRoutes {
				if rr == route {
					n, sum = n+c, sum+s
				}
			}
		}
		handlerUs = meanUs(n, sum)
		r.m["serve.shed"] = float64(st1.Serving.Shed - st0.Serving.Shed)
		if st0.Overlay != nil && st1.Overlay != nil {
			updates, _ := routeDelta(st0, st1, "POST /update")
			r.m["model.lock_hold_us"] = meanUs(updates, float64(st1.Overlay.LockHoldNsTotal-st0.Overlay.LockHoldNsTotal)/1e3)
			r.m["model.lock_hold_max_ms"] = float64(st1.Overlay.LockHoldNsMax) / 1e6
		}
	}
	r.m["server.cpu_s"] = (after.cpu[0] - before.cpu[0]).Seconds()
	var serveCPU time.Duration
	for s := range r.servers {
		serveCPU += after.cpu[s] - before.cpu[s]
	}
	r.m["serve_cpu_us_per_req"] = us(serveCPU) / float64(max(okCount(res), 1))
	if r.w.Serve == "fed" {
		var n uint64
		var sum float64
		for s := 1; s < len(r.servers); s++ {
			c, t := routeDelta(before.stats[s], after.stats[s], "POST /batch/neighbors")
			n, sum = n+c, sum+t
		}
		r.m["fed.fanout"] = float64(n) / float64(max(readN+pagerankN, 1))
		r.m["fed.shard_handler_us"] = meanUs(n, sum)
		handlerUs = sum / float64(max(readN, 1))
		r.m["fed.overhead_us"] = us(svc.Mean()) - handlerUs
		r.m["fed.cpu_s"] = serveCPU.Seconds()
	}
	r.m["transport.overhead_us"] = us(svc.Mean()) - handlerUs
}

// windowMedian splits the phase into k windows of equal schedule
// length and returns the median over windows of the q-quantile of the
// matching requests' response times, in ms: a disturbance confined to
// a minority of windows does not move it.
func windowMedian(res *loadResult, k int, match func(opKind) bool, q float64) float64 {
	reqs := res.reqs
	var per []float64
	for w := 0; w < k; w++ {
		win := reqs[w*len(reqs)/k : (w+1)*len(reqs)/k]
		per = append(per, ms(opHist(win, match).Quantile(q)))
	}
	return median(per)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full set of a run's metrics, printed before the result
// line for the comparator.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

const recordPrefix = "perfbench-record "

// report prints the metric table, the record line and the result line,
// and returns whether the run was correct. The untraced result holds
// the gated end-to-end metrics every workload reports; the
// reported-only ones (wall times, latencies, max_qps) are in the table
// and the record. The traced result holds every layer metric, 0 for a
// layer the workload does not exercise.
func (r *runner) report(w io.Writer) bool {
	r.m["error_rate"] = float64(r.failed) / float64(max(r.attempted, 1))
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s\n", r.w.Name, r.seed, mode)
	table := func(specs []metricSpec) {
		for _, s := range specs {
			if v, ok := r.m[s.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.Name, v, s.Unit)
			}
		}
	}
	if r.trace {
		table(r.cfg.LayerMetrics)
		for _, s := range r.cfg.LayerMetrics {
			res.Metrics[s.Name] = metricValue{Value: r.m[s.Name], Unit: s.Unit}
		}
	} else {
		table(r.cfg.Metrics)
		table(r.cfg.Reported)
		for _, s := range r.cfg.Metrics {
			v, ok := r.m[s.Name]
			if !ok {
				res.Correct = false
				fmt.Fprintf(w, "  %-36s missing\n", s.Name)
			}
			res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		}
	}
	fmt.Fprintf(w, "  %-36s %14.6g ratio (%d of %d attempted operations and checks failed)\n",
		"error_rate", r.m["error_rate"], r.failed, r.attempted)
	rec, _ := json.Marshal(record{Workload: r.w.Name, Seed: r.seed, Trace: r.trace, Correct: res.Correct, Metrics: r.m})
	fmt.Fprintf(w, "%s%s\n", recordPrefix, rec)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}
