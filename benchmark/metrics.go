package main

// metricDef describes one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may get worse before a
// change is rejected; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is measured with tracing off. Every workload reports every
// metric; README.md says what each means on each workload.
//
// Every bound is the contract's widest. One bound serves a metric on all
// four workloads, and on the quiet sandbox ten runs of the workload each
// metric is least steady on spread by 5 to 10 % of their median (quartile
// to quartile); when the hypervisor takes CPU away they spread by more than
// any bound allowed. A tighter bound would reject changes for the host's
// load.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"create_p50_ms", "ms", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"unlink_p50_ms", "ms", "lower", 0.25},
	{"write_MB_per_s", "MB/s", "higher", 0.25},
	{"read_MB_per_s", "MB/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_MB", "MB", "lower", 0.25},
}

// rpcTypes are the message types the rpc.* per-layer metrics name.
var rpcTypes = []string{
	"NSCreate", "NSLookup", "NSCommitBegin", "NSCommitComplete", "NSRemove",
	"LocQuery", "SegShadow", "SegWrite", "Prepare2PC", "Commit2PC", "SegRead",
	"SegDelete", "SegFetch", "ReplicateNotify", "PRead", "PWrite", "PCommit",
}

// perLayer comes from the traced run: decorators around each node's
// endpoint and handler, direct probes of layers with no interface to wrap,
// and a read-only snapshot of the program's own registry. A metric that does
// not exist on a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// core: the client library's own time and how it drives the RPCs.
		lower("core.create.self_us", "us"),
		lower("core.commit.self_us", "us"),
		lower("core.read.self_us", "us"),
		lower("core.unlink.self_us", "us"),
		lower("core.bulk_write.self_us_per_MiB", "us/MiB"),
		lower("core.bulk_read.self_us_per_MiB", "us/MiB"),
		lower("core.rpcs_per_session", "count"),
		lower("core.rpc_rounds_per_session", "count"),
		higher("core.inflight_mean.bulk_write", "count"),
		higher("core.inflight_mean.bulk_read", "count"),
		lower("core.retries_per_kop", "count"),
	}
	for _, t := range rpcTypes {
		defs = append(defs,
			lower("rpc."+t+".per_op", "count"),
			lower("rpc."+t+".call_us_p50", "us"),
			lower("rpc."+t+".serve_us_p50", "us"))
	}
	defs = append(defs,
		lower("transport.overhead_us_p50", "us"),
		lower("transport.overhead_us_per_MiB", "us/MiB"),
		lower("transport.share_of_session", "ratio"),
		lower("transport.wire_bytes_per_user_byte", "ratio"),

		lower("namespace.serve_us_p50", "us"),
		lower("namespace.ops_per_session", "count"),
		lower("namespace.share_of_session", "ratio"),
		lower("namespace.handle_ns_per_op", "ns"),
		lower("namespace.wal_append_us_p50", "us"),

		lower("provider.serve_share_of_session", "ratio"),
		lower("provider.replica_settle_s", "s"),
		lower("provider.background_rpcs_per_s", "1/s"),
		lower("provider.stored_bytes_per_user_byte", "ratio"),

		lower("segstore.shadow_write_commit_us.12KiB", "us"),
		lower("segstore.read_us.12KiB", "us"),
		higher("segstore.write_MiB_per_s.1MiB", "MiB/s"),
		higher("segstore.read_MiB_per_s.1MiB", "MiB/s"),
		lower("segstore.allocs_per_commit", "count"),

		lower("wire.roundtrip_ns.small", "ns"),
		lower("wire.roundtrip_ns.SegWrite_12KiB", "ns"),
		higher("wire.roundtrip_MiB_per_s.SegReadResp_1MiB", "MiB/s"),
		higher("wire.sums_MiB_per_s", "MiB/s"),
		lower("wire.allocs_per_roundtrip.small", "count"),

		lower("proxy.serve_us_p50.PRead", "us"),
		lower("proxy.self_us_p50.PRead", "us"),
		lower("proxy.backend_rpcs_per_read", "count"),
		lower("proxy.serve_us_p50.PCommit", "us"),
		higher("proxy.max_rate_ok", "1/s"),
		higher("proxy.closed_loop_req_per_s", "1/s"),
		// Open-loop latency from the due instant at the three frozen rates
		// (traced run; the end-to-end run holds the lowest throughout).
		lower("gateway.req_p99_ms.r1000", "ms"),
		lower("gateway.req_p50_ms.r2000", "ms"),
		lower("gateway.req_p99_ms.r2000", "ms"),
		lower("gateway.req_p99_ms.r3000", "ms"),

		// The model's budget: modeled busy time per session by resource.
		lower("simnet.nic_busy_ms_per_session", "ms"),
		lower("disk.busy_ms_per_session", "ms"),
		lower("simtime.provider_cpu_busy_ms_per_session", "ms"),
		lower("simtime.namespace_cpu_busy_ms_per_session", "ms"),
		lower("simtime.unaccounted_ms_per_session", "ms"),
		lower("simnet.nic_busy_share.bulk_read", "ratio"),
		lower("disk.busy_share.bulk_read", "ratio"),
		lower("simtime.cpu_s_per_modeled_s", "ratio"),
		lower("simtime.time_scale", "ratio"),

		lower("membership.casts_per_s", "1/s"),

		// Validity of the measurement itself, not performance.
		lower("loadgen.lateness_p99_ms", "ms"),
		lower("loadgen.inflight_max", "count"),
		lower("loadgen.refused", "count"),
		higher("loadgen.nproc", "count"),
		lower("loadgen.cpu_steal_frac", "ratio"),
		lower("trace.overhead_frac", "ratio"),
		higher("trace.session_reconstruct_frac", "ratio"),
	)
	return defs
}
