package main

import (
	"maps"
	"time"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the numbers a user of galsim sees, measured with tracing
// off. Every workload reports all of them; README.md says what an
// operation and a pass are on each.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"sim_instrs_per_s", "instrs/s"},
	{"sweep_wall_s", "s"},
	{"reqs_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p90_ms", "ms"},
	{"evals_per_s", "1/s"},
	{"alloc_bytes_per_instr", "B/instr"},
	{"rss_peak_mb", "MB"},
}

func endToEndValues(setups []float64, r *run) map[string]float64 {
	secs := r.wall.Seconds()
	instrs := float64(r.instrs())
	lat := msOf(r.latencies())
	passes := make([]float64, len(r.passes))
	for i, p := range r.passes {
		passes[i] = p.Seconds()
	}
	return map[string]float64{
		"setup_s":               median(setups),
		"sim_instrs_per_s":      instrs / secs,
		"sweep_wall_s":          median(passes),
		"reqs_per_s":            float64(len(r.ops)) / secs,
		"req_p50_ms":            percentile(lat, 50),
		"req_p90_ms":            percentile(lat, 90),
		"evals_per_s":           float64(r.evals()) / secs,
		"alloc_bytes_per_instr": float64(r.allocBytes) / instrs,
		"rss_peak_mb":           peakRSSMB(),
	}
}

// The buckets the CPU profile's self time is attributed to (see layerOf):
// the pipeline's stages and the packages, or groups of them, per simulated
// instruction; and the request path's layers again per request.
var (
	stages      = []string{"fetch", "decode", "rename_dispatch", "issue", "complete", "commit", "other"}
	instrLayers = []string{
		"event", "fifo", "cache", "bpred", "iq", "rob", "rename", "isa", "clock", "power",
		"workload", "campaign", "machine", "explore",
		"service", "admission", "cluster", "wal", "snapshot",
		"encoding_json", "net_http", "syscall", "runtime_gc", "other",
	}
	reqLayers = []string{
		"service", "admission", "cluster", "wal", "snapshot",
		"encoding_json", "net_http", "syscall", "runtime_gc",
	}
)

// spanMetrics are timed from this package around the calls into a layer,
// or counted there. A workload that does not exercise a layer reports 0.
var spanMetrics = []metric{
	{"pipeline.run_ns_per_instr", "ns/instr"},
	{"pipeline.host_ns_per_cycle", "ns/cycle"},
	{"pipeline.useful_fetch_ratio", "ratio"},
	{"pipeline.build_ms", "ms"},
	{"workload.next_ns_per_instr", "ns/instr"},
	{"workload.new_source_us", "us"},
	{"campaign.canonical_us", "us"},
	{"campaign.key_us", "us"},
	{"campaign.worker_hit_ratio", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"service.handler_ms_p50", "ms"},
	{"service.http_ms_p50", "ms"},
	{"cluster.backend_ms_p50", "ms"},
	{"cluster.execute_ms_p50", "ms"},
	{"cluster.fabric_ms_per_req", "ms/req"},
	{"cluster.lease_calls_per_req", "calls/req"},
	{"cluster.lease_wait_ms_per_req", "ms/req"},
	{"cluster.complete_ms_p50", "ms"},
	{"cluster.checkpoint_ms_p50", "ms"},
	{"cluster.retries", "count"},
	{"cluster.lease_expiries", "count"},
	{"wal.enqueue_ms_p50", "ms"},
	{"wal.complete_ms_p50", "ms"},
	{"wal.checkpoint_ms_p50", "ms"},
	{"wal.finish_ms_p50", "ms"},
	{"wal.fsyncs_per_req", "fsyncs/req"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"explore.evaluate_ms_per_gen", "ms/gen"},
	{"explore.self_ms_per_gen", "ms/gen"},
	{"explore.cache_hit_ratio", "ratio"},
	{"machine.self_ms_per_eval", "ms/eval"},
	{"attribution.cpu_over_wall", "ratio"},
	{"tracing.throughput_ratio", "ratio"},
}

// perLayer is every metric a traced run reports.
var perLayer = func() []metric {
	var m []metric
	for _, s := range stages {
		m = append(m, metric{"pipeline." + s + ".self_ns_per_instr", "ns/instr"})
	}
	for _, l := range instrLayers {
		m = append(m, metric{l + ".self_ns_per_instr", "ns/instr"})
	}
	for _, l := range reqLayers {
		m = append(m, metric{l + ".self_us_per_req", "us/req"})
	}
	return append(m, spanMetrics...)
}()

// layerValues divides the traced window's profiled self time, by layer,
// into per-instruction and per-request figures, beside the span metrics
// the workload recorded.
func layerValues(r *run, self map[string]time.Duration, total time.Duration) map[string]float64 {
	v := maps.Clone(r.layers)
	if v == nil {
		v = map[string]float64{}
	}
	instrs, reqs := float64(r.instrs()), float64(len(r.ops))
	for _, s := range stages {
		v["pipeline."+s+".self_ns_per_instr"] = float64(self["pipeline."+s]) / instrs
	}
	for _, l := range instrLayers {
		v[l+".self_ns_per_instr"] = float64(self[l]) / instrs
	}
	for _, l := range reqLayers {
		v[l+".self_us_per_req"] = float64(self[l]) / 1e3 / reqs
	}
	v["machine.self_ms_per_eval"] = ms(self["machine"]) / float64(r.evals())
	v["runtime.gc_cpu_fraction"] = r.gcFraction
	v["attribution.cpu_over_wall"] = total.Seconds() / r.wall.Seconds()
	return v
}
