//! `batch_cluster`: the paper's own path, with no server and no store.
//! One operation is one full analysis pass over the finished chain —
//! cluster with H1, cluster with refined H2, name, freeze the snapshot,
//! index the graph, compute the balance series, track every scripted
//! theft, follow the Silk Road peeling chains.

use crate::economy::{prepare, setup_layers, Prepared};
use crate::procstat;
use crate::report::{Outcome, RunOpts};
use crate::stats::{chunked_ratio, median_u64, percentile_sorted};
use crate::stream::MAX_TAINT_TXS;
use crate::trace::{self, span_cost_ns, Span, Tracer};
use fistful_core::cluster::Clusterer;
use fistful_core::naming::name_clusters;
use fistful_core::snapshot::ClusterSnapshot;
use fistful_flow::graph::TxGraph;
use fistful_flow::{
    balance_series, follow_chains_indexed, track_thefts_batch, BalancePoint, FollowStrategy,
};
use fistful_serve::ServeError;
use std::time::{Duration, Instant};

const MAX_PEEL_HOPS: usize = 100;
const TAINT_THREADS: usize = 2;

/// What a pass must reproduce, pinned from the first one.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    clusters_h1: usize,
    clusters_h2: usize,
    /// Table 3's movement pattern of each theft.
    patterns: Vec<String>,
    /// Hops followed on each peeling chain.
    hops: Vec<usize>,
    snapshot_matches_setup: bool,
}

/// What a pass computed; compared only after its clock has stopped.
struct Produced {
    clusters_h1: usize,
    clusters_h2: usize,
    patterns: Vec<String>,
    hops: Vec<usize>,
    snapshot: ClusterSnapshot,
    balances: Vec<BalancePoint>,
}

impl Produced {
    fn pin(self, prep: &Prepared) -> Pinned {
        Pinned {
            clusters_h1: self.clusters_h1,
            clusters_h2: self.clusters_h2,
            patterns: self.patterns,
            hops: self.hops,
            snapshot_matches_setup: self.snapshot == prep.artifacts.snapshot
                && self.balances == prep.artifacts.balances,
        }
    }
}

fn pass(prep: &Prepared, op: u32, t: &mut Tracer) -> Produced {
    let chain = &*prep.chain;
    let root = t.open("batch.pass", op);
    let h1 = t.scope("core.cluster.h1_run", op, || {
        Clusterer::h1_only().run(chain)
    });
    let mut h2 = t.scope("core.cluster.h2_refined_run", op, || {
        Clusterer::with_h2(prep.refined.clone()).run(chain)
    });
    let labels = h2
        .change_labels
        .take()
        .expect("an H2 clustering keeps its change labels");
    let names = t.scope("core.naming.name_clusters", op, || {
        name_clusters(&h2, &prep.tagdb)
    });
    let snapshot = t.scope("core.snapshot.build", op, || {
        ClusterSnapshot::build(chain, &h2, &names)
    });
    let graph = t.scope("flow.graph.build", op, || TxGraph::build(chain));
    let balances = t.scope("flow.balance.series", op, || {
        balance_series(chain, &snapshot, prep.scale.balance_every())
    });
    let traces = t.scope("flow.theft.batch_track", op, || {
        track_thefts_batch(
            &graph,
            &prep.loots,
            &labels,
            &snapshot,
            MAX_TAINT_TXS as usize,
            TAINT_THREADS,
        )
    });
    let chains = t.scope("flow.peel.follow_chains", op, || {
        follow_chains_indexed(
            &graph,
            &labels,
            &prep.peel_starts,
            MAX_PEEL_HOPS,
            FollowStrategy::LargestFallback,
        )
    });
    t.close(root);
    Produced {
        clusters_h1: h1.cluster_count(),
        clusters_h2: h2.cluster_count(),
        patterns: traces.into_iter().map(|t| t.pattern).collect(),
        hops: chains.iter().map(|c| c.hops.len()).collect(),
        snapshot,
        balances,
    }
}

pub fn run(workload: &'static str, opts: RunOpts) -> Result<Outcome, ServeError> {
    let mut out = Outcome::new(workload, opts);
    let origin = opts.started;
    let mut setup_tracer = opts.setup_tracer();

    let prep = prepare(opts.seed, opts.scale(), &mut setup_tracer);
    let first_setup_s = opts.started.elapsed().as_secs_f64();
    out.notes.push(format!(
        "{} txs, {} addresses, {} thefts, {} peeling chains",
        prep.chain.tx_count(),
        prep.chain.address_count(),
        prep.loots.len(),
        prep.peel_starts.len()
    ));

    // Untraced passes for the whole timed phase, or for its first half
    // when traced passes follow.
    let min_passes = if opts.smoke { 1 } else { 5 };
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let mut pinned: Option<Pinned> = None;
    let mut diverged = 0usize;
    let mut durations_ns = Vec::new();
    let mut cpu_us = Vec::new();
    let mut keep = |result: Pinned| {
        if let Some(first) = &pinned {
            diverged += usize::from(*first != result);
        } else {
            pinned = Some(result);
        }
    };
    let phase = Instant::now();
    while durations_ns.len() < min_passes || phase.elapsed() < budget {
        let cpu_before = procstat::cpu_seconds();
        let started = Instant::now();
        let result = pass(&prep, durations_ns.len() as u32, &mut Tracer::off());
        durations_ns.push(started.elapsed().as_nanos() as u64);
        cpu_us.push((procstat::cpu_seconds() - cpu_before) * 1e6);
        keep(result.pin(&prep));
    }

    let mut traced_ns = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    if opts.trace {
        let mut t = Tracer::on(origin, 4096);
        let phase = Instant::now();
        while traced_ns.is_empty() || phase.elapsed() < budget {
            let started = Instant::now();
            let result = pass(&prep, traced_ns.len() as u32, &mut t);
            traced_ns.push(started.elapsed().as_nanos() as u64);
            keep(result.pin(&prep));
        }
        spans = t.into_spans();
    }

    let first = pinned.expect("at least one pass ran");
    let passes = durations_ns.len() + traced_ns.len();
    out.check(
        "every_pass_reproduces_the_first",
        diverged == 0 && first.snapshot_matches_setup,
        format!(
            "{passes} passes: {} H1 and {} H2 clusters, patterns {:?}, peel hops {:?}; {diverged} passes differ; snapshot and balances equal the set-up's: {}",
            first.clusters_h1, first.clusters_h2, first.patterns, first.hops, first.snapshot_matches_setup
        ),
    );
    out.attempted = durations_ns.len() as u64;
    out.failed = diverged.min(durations_ns.len()) as u64;

    if opts.trace {
        // Every stage but the simulation runs once per pass, so a stage's
        // number is its median over the traced passes (and the set-up).
        let spans = trace::merge(vec![setup_tracer.into_spans(), spans]);
        setup_layers(&mut out, &prep, &spans);
        let by_name = trace::self_times_by_name(&spans);
        let us = |name: &str| {
            by_name
                .get(name)
                .map(|v| median_u64(v) / 1e3)
                .unwrap_or(0.0)
        };
        out.layer("flow.theft.batch_track_us", us("flow.theft.batch_track"));
        out.layer("flow.peel.follow_chains_us", us("flow.peel.follow_chains"));
        // Throughput is the inverse of a pass's duration; the shortest
        // pass on each side is the one least disturbed.
        let shortest = |v: &[u64]| v.iter().copied().min().unwrap_or(1) as f64;
        out.layer(
            "trace.overhead_share",
            shortest(&durations_ns) / shortest(&traced_ns),
        );
        out.layer("trace.span_cost_ns", span_cost_ns(origin));
        trace::write_jsonl(&trace::file_for(workload), &spans, 0)?;
    } else {
        let tail_p = out.tail_percentile();
        let us: Vec<f64> = durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let thr: Vec<f64> = durations_ns.iter().map(|&ns| 1e9 / ns as f64).collect();
        out.measure("throughput_ops_s", &thr);
        out.measure("latency_p50_us", &us);
        // One pass is one sample, so the tail is read once, over them all.
        let mut sorted = durations_ns.clone();
        sorted.sort_unstable();
        out.measure(
            "latency_tail_us",
            &[percentile_sorted(&sorted, tail_p) as f64 / 1e3],
        );
        out.tail_samples = sorted.len();
        let ones = vec![1.0; cpu_us.len()];
        out.measure("cpu_us_per_op", &chunked_ratio(&cpu_us, &ones, 5));
        out.measure("rss_peak_mb", &[procstat::rss_peak_mb()]);
        drop(prep);
        out.measure_setup(first_setup_s, || {
            drop(prepare(opts.seed, opts.scale(), &mut Tracer::off()));
            Ok::<(), ServeError>(())
        })?;
    }
    Ok(out)
}
