package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// perLayer lists every metric the traced run prints, with its unit. A
// metric whose layer does not run on a workload reads 0 there: the layer
// did no work (see README.md for which layers run where).
var perLayer = []struct{ Name, Unit string }{
	{"wsxd.submit.self_us", "us"},
	{"wsxd.submit.p99_ms", "ms"},
	{"wsxd.submit.p999_ms", "ms"},
	{"wsxd.rank.self_us", "us"},
	{"wsxd.rank.p99_ms", "ms"},
	{"wsxd.rank.p999_ms", "ms"},
	{"wsxd.rank.resp_bytes", "bytes"},
	{"wsxd.local-trust.self_us", "us"},
	{"wsxd.local-trust.p99_ms", "ms"},
	{"wsxd.local-trust.p999_ms", "ms"},
	{"wsxd.compute-with-stats.self_us", "us"},
	{"wsxd.compute-with-stats.p99_ms", "ms"},
	{"wsxd.compute-with-stats.p999_ms", "ms"},
	{"wsxd.gc.cycles_per_1k_req", "count"},
	{"wsxd.gc.cpu_pct", "%"},
	{"resilience.shed_ratio", "ratio"},
	{"resilience.admit_ns", "ns"},
	{"resilience.breaker_do_ns", "ns"},
	{"registry.open_s", "s"},
	{"registry.replay_s", "s"},
	{"registry.submit.p50_us", "us"},
	{"registry.submit.p999_us", "us"},
	{"registry.submit.max_ms", "ms"},
	{"registry.submit.stalls_10ms", "count"},
	{"registry.write_bytes_per_record", "bytes"},
	{"registry.submit_batch.us_per_record", "us"},
	{"registry.frames_since.us_per_frame", "us"},
	{"registry.apply_replicated.us_per_frame", "us"},
	{"replica.bootstrap_s", "s"},
	{"replica.bootstrap_bytes", "bytes"},
	{"replica.lag_max_records", "count"},
	{"beta.submit_ns", "ns"},
	{"beta.score_ns", "ns"},
	{"eigentrust.submit_ns", "ns"},
	{"eigentrust.refresh_warm.p50_ms", "ms"},
	{"eigentrust.refresh_cold.p50_ms", "ms"},
	{"eigentrust.iterations.p50", "count"},
	{"eigentrust.cold_ratio", "ratio"},
	{"eigentrust.heap_peak_mb", "MB"},
	{"core.rank.p50_us", "us"},
	{"trace.overhead.write_p50_ms", "ms"},
	{"trace.overhead.read_p50_ms", "ms"},
	{"trace.overhead.cpu_us_per_req", "us"},
	{"trace.spans", "count"},
}

// tracedRun measures the per-layer metrics: an untraced HTTP pass and a
// traced one (a span per request), each
// as long as an untraced run, then the in-process replay of the traced
// pass's warm-up and phase ops. The difference between the two HTTP
// passes is the tracing overhead.
func (b *bench) tracedRun(build string) (result, error) {
	u, err := b.pass("untraced", 1, b.seconds, nil)
	if err != nil {
		return result{}, err
	}
	ops := append(b.ops(warmupSeconds, true), b.ops(b.seconds, false)...)
	httpTr := newTracer(2 * len(ops))
	t, err := b.pass("traced", 1, b.seconds, httpTr)
	if err != nil {
		return result{}, err
	}
	// Up to four spans per op, a few outside the loop.
	layerTr := newTracer(4*len(ops) + 16)
	start := time.Now()
	lr, err := b.replayLayers(ops, layerTr)
	if err != nil {
		return result{}, err
	}
	b.step("replay", start)

	m := lr.Metrics
	for _, rt := range []string{"submit", "rank", "local-trust", "compute-with-stats"} {
		var due, end []time.Time
		var trip, bytes []float64
		for _, s := range t.samples {
			if s.Route == rt {
				due, end = append(due, s.Due), append(end, s.End)
				trip = append(trip, float64(s.End.Sub(s.Start))/float64(time.Microsecond))
				bytes = append(bytes, float64(s.Bytes))
			}
		}
		if len(trip) == 0 {
			continue
		}
		lat := dueLatencies(due, end)
		m["wsxd."+rt+".p99_ms"] = percentile(lat, 0.99)
		m["wsxd."+rt+".p999_ms"] = percentile(lat, 0.999)
		m["wsxd."+rt+".self_us"] = percentile(trip, 0.5) - lr.OpP50us[rt]
		if rt == "rank" {
			var sum float64
			for _, x := range bytes {
				sum += x
			}
			m["wsxd.rank.resp_bytes"] = sum / float64(len(bytes))
		}
	}
	m["wsxd.gc.cycles_per_1k_req"] = float64(t.gcCycles) * 1000 / float64(max(t.completed, 1))
	if t.cpuTicks > 0 {
		m["wsxd.gc.cpu_pct"] = t.gcCPUms / (float64(t.cpuTicks) * 1000 / clockTicks) * 100
	}
	shed := 0
	for _, s := range t.samples {
		if s.Status == 429 {
			shed++
		}
	}
	m["resilience.shed_ratio"] = float64(shed) / float64(max(t.attempted, 1))
	ue, te := u.endToEnd(), t.endToEnd()
	for _, k := range []string{"write_p50_ms", "read_p50_ms", "cpu_us_per_req"} {
		m["trace.overhead."+k] = te[k].Value - ue[k].Value
	}
	httpSpans, layerSpans := len(httpTr.snapshot()), len(layerTr.snapshot())
	m["trace.spans"] = float64(httpSpans + layerSpans)

	dir := filepath.Join(build, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.sp.Name, b.seed))
	if err := httpTr.writeJSONL(stem + ".http.jsonl"); err != nil {
		return result{}, err
	}
	if err := layerTr.writeJSONL(stem + ".layers.jsonl"); err != nil {
		return result{}, err
	}
	b.info["traces"] = stem + ".{http,layers}.jsonl"
	b.info["untraced"], b.info["traced"] = ue, te
	b.info["layer_self_us_p50"] = lr.SelfP50us

	out := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		out[pl.Name] = metric{Value: m[pl.Name], Unit: pl.Unit}
	}
	return b.result(u.attempted+t.attempted, u.failed+t.failed, out), nil
}
