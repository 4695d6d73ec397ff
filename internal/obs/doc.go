// Package obs is the repo's observability substrate: a dependency-free
// metrics registry (counters, gauges, histograms over modeled time) plus a
// lightweight span tracer, wired through every protocol layer (client →
// transport → provider → disk). It answers the questions Sorrento's
// self-organizing claims hinge on — which NIC is saturated, which disk queue
// is backing up, where a 2PC commit spent its time — from a live process or
// from a benchmark run's artifact dump.
//
// # Metric name schema
//
// All metric names are prometheus-style snake_case with the "sorrento_"
// prefix, a subsystem segment, and a unit suffix:
//
//	sorrento_<subsystem>_<what>_<unit>[_total]
//
// Dimensions ride in labels, never in the name. The wired families are:
//
//	sorrento_rpc_client_seconds{node,type}        histogram: per-message-type RPC round trip (transport client side)
//	sorrento_rpc_server_seconds{node,type}        histogram: per-message-type handler service time (TCP transport)
//	sorrento_rpc_bytes_total{node,type,dir}       counter: estimated wire bytes, dir="sent"|"recv"
//	sorrento_rpc_errors_total{node,type}          counter: failed calls
//	sorrento_rpc_casts_total{node,type}           counter: multicast/cast messages sent
//	sorrento_resource_utilization{resource}       gauge: busy fraction since last scrape (simtime.UtilizationSampler)
//	sorrento_resource_queue_seconds{resource}     gauge: backlogged service time queued behind new arrivals
//	sorrento_resource_busy_seconds_total{resource} gauge(cumulative): modeled service time delivered
//	sorrento_resource_requests_total{resource}    gauge(cumulative): requests serviced
//	sorrento_disk_used_bytes{node}                gauge: committed bytes on the provider's disk
//	sorrento_disk_used_frac{node}                 gauge: f_s, the space input to migration decisions
//	sorrento_provider_2pc_total{node,phase}       counter: prepare/commit/abort rounds handled (phase label)
//	sorrento_provider_2pc_seconds{node,phase}     histogram: per-phase handler latency
//	sorrento_provider_shadows_open{node}          gauge: shadow segments currently open
//	sorrento_provider_loc_queries_total{node,result} counter: home-host lookups, result="hit"|"miss"
//	sorrento_transfer_total{node,reason,outcome}  counter: every background mover — reason="sync"|"replicate"|"scrub"|"migrate-ioload"|"migrate-space"|"migrate-locality"|"drain", outcome="delta"|"full"|"retry"|"reject"|"fail"|"handoff"
//	sorrento_transfer_bytes_total{node,reason}    counter: bytes accepted by pulls, bytes handed off by sources
//	sorrento_provider_load_fl{node}               gauge: f_l, the EWMA I/O load input to migration decisions
//	sorrento_provider_segments{node}              gauge: committed segments resident in the store
//	sorrento_namespace_commit_conflicts_total{kind} counter: CommitBegin rejections, kind="conflict"|"blocked"
//	sorrento_client_commit_seconds{node}          histogram: whole-commit latency (client side)
//	sorrento_client_commits_total{node}           counter: commits completed
//	sorrento_client_commit_conflicts_total{node}  counter: commit retries forced by the commit window
//	sorrento_client_probes_total{node}            counter: location probe rounds issued
//	sorrento_membership_heartbeat_gap_seconds{node} histogram: observed inter-heartbeat gaps per observer
//	sorrento_membership_evictions_total{node}     counter: providers declared dead by this observer
//
// Namespace per-op counts and latencies ride the generic RPC families with
// node="ns" (e.g. sorrento_rpc_server_seconds{node="ns",type="Lookup"}) —
// the transport layer owns request accounting, and the namespace server only
// adds what the transport cannot see (commit-window rejections above).
//
// Histograms record modeled seconds (simtime), so a run at Scale 0.01 and a
// run at Scale 1 produce comparable distributions. On the real-clock daemons
// (sorrentod, namespaced) modeled time is wall time.
//
// # Trace/span ID propagation
//
// Tracer.Start opens a span and stashes its SpanContext — a (TraceID,
// SpanID) pair of random-ish uint64s — in the context.Context. In-process
// transports (simnet) propagate the context directly to the handler, so
// child spans parent correctly for free. The TCP transport serializes the
// pair into the call envelope (wire.AppendEnvelope) and the server side
// re-injects it into the handler context, so a trace crosses machine
// boundaries. Completed spans land in a bounded in-memory ring readable at
// /debug/trace; when the ring wraps, oldest spans are dropped (tracing is a
// diagnostic aid, not an audit log).
//
// # Cost model
//
// Everything is nil-safe: a nil *Registry, *Obs, *Tracer, or metric handle
// makes every method a no-op, so "obs off" is a nil check per event and the
// data path allocates nothing. Metric handles are resolved once (at
// construction or via a sync.Map keyed by reflect.Type for per-message-type
// RPC metrics) and updates are a single atomic add — no locks on the hot
// paths PR 2 parallelized.
package obs
