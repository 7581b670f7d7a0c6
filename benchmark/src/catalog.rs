//! The names the benchmark reports: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repo root
//! lists the same names; a test below keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// The percentile `latency_tail_us` is read at. Fixed per workload, so
    /// it never changes silently; a run with too few samples beyond it
    /// says so instead of switching.
    pub tail_percentile: u32,
    /// What one operation is.
    pub op: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "serve_point_hot",
        tail_percentile: 75,
        op: "request/response round trip",
        why: "Threaded server, 256-key hot set: every request is a cache hit, so sockets, framing and cache reads do the work and core/flow none. Tail is p75.",
    },
    Workload {
        name: "serve_point_cold",
        tail_percentile: 75,
        op: "request/response round trip",
        why: "Same engine and mix, keys over the whole space: every request misses, decodes, looks up, encodes, inserts, evicts. A hit-path gain paid for on the miss path shows here. Tail is p75.",
    },
    Workload {
        name: "serve_taint",
        tail_percentile: 99,
        op: "request/response round trip",
        why: "Threaded server, one bounded taint walk per request over distinct outpoints: the flow::theft graph walk is the request; transport and cache changes must not move it. Tail is p99.",
    },
    Workload {
        name: "serve_point_hot_event",
        tail_percentile: 90,
        op: "request/response round trip",
        why: "The serve_point_hot traffic against the event-loop engine: the only workload on it, so the gap between the two engines is measured one way. Tail is p90.",
    },
    Workload {
        name: "ingest_live",
        tail_percentile: 90,
        op: "published epoch",
        why: "LivePipeline streaming the chain into a running server, in RAM: sharded ingest, snapshot export, graph extend/clone and balance rebuild per epoch; the store does nothing. Tail is p90.",
    },
    Workload {
        name: "ingest_live_store",
        tail_percentile: 90,
        op: "published epoch",
        why: "The same with a store directory, reopened and resumed after each pass: container encode, checksums and file writes join each epoch, so store changes show here alone. Tail is p90.",
    },
    Workload {
        name: "batch_cluster",
        tail_percentile: 90,
        op: "full analysis pass",
        why: "The paper path with no server: H1, refined H2, naming, snapshot, graph, balances, theft walks, peeling chains. It bypasses serve and store, so their changes must leave it flat. Tail is p90.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every bound is the contract's ceiling. Ten runs of one seed on the
/// two-core box this was sized on already differ by 4–7 % between their
/// quartiles, and ten seeds by up to 13 %, so a tighter bound would reject
/// unchanged code.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in the order the README's table lists them. A
/// traced run prints all of them; one whose layer the workload never
/// enters reads 0. The unit `count` is kept for numbers that repeat
/// exactly from run to run on one seed; tallies that depend on how many
/// operations fit into the timed phase are `events`.
pub const PER_LAYER: [Layer; 57] = [
    // set-up, every workload
    lower("sim.economy_run_s", "s"),
    higher("chain.resolve.txs", "count"),
    higher("chain.resolve.addresses", "count"),
    // the batch stages; the build ones are also part of every set-up
    lower("core.cluster.h1_run_ms", "ms"),
    lower("core.cluster.h2_refined_run_ms", "ms"),
    lower("core.naming.name_clusters_ms", "ms"),
    lower("core.snapshot.build_ms", "ms"),
    lower("flow.graph.build_ms", "ms"),
    lower("flow.balance.series_ms", "ms"),
    lower("flow.theft.batch_track_us", "us"),
    lower("flow.peel.follow_chains_us", "us"),
    lower("core.cluster.clusters_h1", "count"),
    lower("core.cluster.clusters_h2", "count"),
    // one live epoch
    lower("core.sharded.ingest_block_us", "us"),
    lower("core.sharded.reconcile_ms", "ms"),
    lower("core.sharded.export_delta_ms", "ms"),
    lower("flow.graph.extend_ms", "ms"),
    lower("flow.graph.clone_ms", "ms"),
    lower("core.change.labels_clone_ms", "ms"),
    lower("flow.balance.series_at_ms", "ms"),
    lower("serve.server.artifacts_new_ms", "ms"),
    lower("serve.server.publish_us", "us"),
    higher("serve.live.epochs", "count"),
    lower("serve.live.swap_mean_ms", "ms"),
    lower("serve.live.epoch_growth_ratio", "ratio"),
    // the store's write side
    lower("core.snapshot.delta_write_ms", "ms"),
    lower("serve.store.graph_write_ms", "ms"),
    higher("store.container.encode_mb_s", "MB/s"),
    lower("store.container.write_ms", "ms"),
    lower("serve.store.bytes_per_epoch", "count"),
    lower("serve.store.dir_bytes", "count"),
    lower("serve.store.save_dir_ms", "ms"),
    // the store's read side
    lower("serve.store.open_dir_ms", "ms"),
    lower("serve.live.resume_ms", "ms"),
    higher("store.container.decode_mb_s", "MB/s"),
    // transport
    lower("serve.client.ping_rtt_us", "us"),
    lower("serve.server.handle_mean_us", "us"),
    lower("serve.client.transport_us", "us"),
    lower("serve.client.rtt_p99_us", "us"),
    lower("serve.client.bytes_per_response", "B"),
    lower("serve.event.dispatch_wait_mean_us", "us"),
    lower("serve.event.backpressure_stalls", "events"),
    lower("serve.server.busy_sheds", "events"),
    // the response cache
    lower("serve.cache.get_hit_ns", "ns"),
    lower("serve.cache.get_miss_ns", "ns"),
    lower("serve.cache.insert_ns", "ns"),
    higher("serve.cache.hit_ratio", "ratio"),
    lower("serve.cache.evictions", "events"),
    // the miss path
    lower("serve.protocol.decode_ns", "ns"),
    lower("serve.protocol.encode_ns", "ns"),
    lower("core.snapshot.lookup_ns", "ns"),
    lower("flow.balance.point_at_ns", "ns"),
    // the taint walk
    lower("flow.theft.walk_us", "us"),
    lower("flow.theft.txs_per_walk", "txs"),
    lower("flow.theft.ns_per_tx", "ns"),
    // the tracer itself
    higher("trace.overhead_share", "ratio"),
    lower("trace.span_cost_ns", "ns"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names(list: &Json) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        assert_eq!(
            names(doc.get("workloads").unwrap()),
            WORKLOADS.map(|w| w.name.to_string())
        );
        for (entry, w) in doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            let why = entry.get("why").unwrap().as_str().unwrap();
            assert_eq!(why, w.why);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                why.len()
            );
            assert!(why.ends_with(&format!("Tail is p{}.", w.tail_percentile)));
        }

        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(names(e2e), END_TO_END.map(|m| m.name.to_string()));
        for (entry, m) in e2e.as_array().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(m.better.label())
            );
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(m.bound));
        }

        let layers = doc.get("per_layer").unwrap();
        assert_eq!(
            names(layers),
            PER_LAYER
                .iter()
                .map(|m| m.name.to_string())
                .collect::<Vec<_>>()
        );
        for (entry, m) in layers.as_array().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(m.better.label())
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
    }
}
