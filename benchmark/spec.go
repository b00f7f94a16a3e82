package main

// metricSpec names one metric. BENCHMARK.json at the repository root lists
// the gated end-to-end metrics and the per-layer metrics from these tables;
// TestBenchmarkJSONMatchesSpec keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // share of the baseline median by which it may worsen; 0 = not gated
	moves  string  // per-layer: the end-to-end metric it should move, and where
}

// runSeconds is the measured window the bounds below were chosen for;
// BENCHMARK.json's run_seconds.
const runSeconds = 12

// endToEnd are the metrics a caller of the REST API would see, per
// workload, measured with tracing off. A bound is two to three times the
// widest run-to-run spread (interquartile range over median, ten seeds)
// any workload showed on the two-core box the baseline was taken on:
// throughput 6.4 % (analytic_large, some 200 requests a run), latency 7.0 %
// (analytic_large; federated_scan, whose cheap shapes queue behind full
// scans on the one fdw connection, 6.6 %), peak RSS 5.2 %, set-up 11.6 %.
// The other three workloads stay under 3 % on throughput and latency.
var endToEnd = []metricSpec{
	{name: "throughput_qps", unit: "1/s", better: "higher", bound: 0.15},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// informational metrics are printed and recorded but the driver gates
// nothing on them: a tail percentile of a 12 s closed-loop run is too noisy
// to bound, the read and write medians exist only where a workload has both
// kinds of shape (the compare command gates them there, while
// latency_p50_ms covers both), and failed_share must simply be 0.
var informational = []metricSpec{
	{name: "latency_tail_ms", unit: "ms", better: "lower"},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "failed_share", unit: "%", better: "lower"},
	{name: "window_s", unit: "s", better: "higher"},
}

// perLayer are the traced run's metrics, one block per package of this
// repository. Times are means per traced request, so that a workload's
// layer times add up to its rest_handler_us.
var perLayer = []metricSpec{
	{name: "rest_handler_us", unit: "us", better: "lower", moves: "latency_p50_ms and throughput_qps on every workload; it is the whole of enrich_hot"},
	{name: "rest_overhead_us", unit: "us", better: "lower", moves: "latency_p50_ms, throughput_qps on enrich_hot; negligible share on analytic_large"},
	{name: "response_bytes", unit: "B", better: "lower", moves: "rest_overhead_us (JSON encode) on enrich_hot and order_enriched of analytic_large"},
	{name: "cache_hit_ratio", unit: "ratio", better: "higher", moves: "throughput_qps on enrich_hot; latency_p50_ms on belief_churn after writes; 0 on enrich_uncached by construction"},
	{name: "cache_evictions", unit: "count", better: "lower", moves: "nothing when the key set fits (enrich_hot); one per request on the uncached workloads"},
	{name: "cache_get_us", unit: "us", better: "lower", moves: "throughput_qps on enrich_hot"},
	{name: "admission_shed", unit: "count", better: "lower", moves: "failed_share anywhere; 0 with two closed-loop clients"},
	{name: "sesql_parse_us", unit: "us", better: "lower", moves: "latency_p50_ms on enrich_uncached and federated_scan (distinct texts miss the text-keyed plan cache); nothing on enrich_hot"},
	{name: "plan_cache_hit_ratio", unit: "ratio", better: "higher", moves: "latency_p50_ms on enrich_uncached if it ever rises above the SPARQL-only share"},
	{name: "core_query_us", unit: "us", better: "lower", moves: "latency_p50_ms on enrich_uncached, federated_scan, analytic_large; under 10 % of the handler on enrich_hot"},
	{name: "core_join_us", unit: "us", better: "lower", moves: "latency_p50_ms on enrich_uncached; order_enriched of analytic_large"},
	{name: "core_final_us", unit: "us", better: "lower", moves: "order_enriched of analytic_large (the support-database final stage)"},
	{name: "core_unattributed_us", unit: "us", better: "lower", moves: "latency_p50_ms on enrich_uncached; above 10 % of core_query_us the budget no longer adds up"},
	{name: "sqlexec_base_us", unit: "us", better: "lower", moves: "latency_p50_ms on enrich_uncached and analytic_large; none on enrich_hot"},
	{name: "rows_examined_per_result", unit: "ratio", better: "lower", moves: "sqlexec_base_us wherever a filter is not pushed into a seek"},
	{name: "sparql_us", unit: "us", better: "lower", moves: "latency_p50_ms on enrich_uncached; sparql_closure of analytic_large; little on federated_scan"},
	{name: "sparql_queries_per_request", unit: "ratio", better: "lower", moves: "sparql_us"},
	{name: "sparql_solutions", unit: "count", better: "lower", moves: "sparql_us and core_join_us"},
	{name: "rdf_match_ns_per_triple", unit: "ns", better: "lower", moves: "sparql_us on enrich_uncached: the read side of the rdf read-vs-write trade"},
	{name: "rdf_view_triples", unit: "count", better: "lower", moves: "peak_rss_mb and setup_s everywhere"},
	{name: "kb_insert_us", unit: "us", better: "lower", moves: "write_p50_ms on belief_churn: the write side of the rdf read-vs-write trade"},
	{name: "kb_retract_us", unit: "us", better: "lower", moves: "write_p50_ms on belief_churn"},
	{name: "journal_write_us", unit: "us", better: "lower", moves: "write_p50_ms on belief_churn; 0 elsewhere"},
	{name: "wal_bytes_per_write", unit: "B", better: "lower", moves: "journal_write_us on belief_churn"},
	{name: "wal_appends", unit: "count", better: "lower", moves: "one per write on belief_churn; 0 elsewhere"},
	{name: "wal_syncs", unit: "count", better: "lower", moves: "write_p50_ms tail on belief_churn under the interval policy"},
	{name: "fdw_scan_us", unit: "us", better: "lower", moves: "latency_p50_ms on federated_scan; 0 elsewhere"},
	{name: "fdw_rows", unit: "count", better: "lower", moves: "fdw_scan_us (rows shipped per request)"},
	{name: "fdw_round_trips", unit: "count", better: "lower", moves: "fdw_scan_us"},
	{name: "fdw_retries", unit: "count", better: "lower", moves: "latency_tail_ms on federated_scan; 0 on a healthy loopback"},
	{name: "parallel_speedup", unit: "ratio", better: "higher", moves: "latency_p50_ms on analytic_large; about 1.0 on enrich_uncached, where a change is a red flag"},
	{name: "parallel_fallback_share", unit: "ratio", better: "lower", moves: "parallel_speedup: under 0.5 on analytic_large, about 1.0 on the small-query workloads"},
	{name: "layer_self_sum_ratio", unit: "ratio", better: "lower", moves: "nothing; the layers' self times over rest_handler_us, within 10 % of 1 when the budget adds up"},
	{name: "trace_overhead", unit: "ratio", better: "lower", moves: "nothing; traced handler p50 over untraced handler p50"},
}
