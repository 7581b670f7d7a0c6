//! Argument parsing for the `repro` binary, factored out so the dedupe,
//! `all`-mixing, and `snapshot`/`taint`/`ingest`/`store`/`serve`
//! subcommand rules are unit-testable without spawning the binary.

/// Every experiment `repro` knows, in presentation order.
pub const EXPERIMENTS: [&str; 9] =
    ["fig1", "tab1", "h1", "fp", "super", "h2", "fig2", "tab2", "tab3"];

/// The simulation scales `--scale` accepts.
pub const SCALES: [&str; 3] = ["tiny", "default", "paper"];

/// Default number of top clusters printed by `snapshot query`.
pub const DEFAULT_QUERY_TOP: usize = 10;

/// Default taint-walk transaction bound for `repro taint` (the same bound
/// `tab3` uses).
pub const DEFAULT_TAINT_MAX_TXS: usize = 5_000;

/// Default port for `repro serve`.
pub const DEFAULT_SERVE_PORT: u16 = 7833;

/// Default response-cache capacity for `repro serve`.
pub const DEFAULT_SERVE_CACHE: usize = 4096;

/// Default shard-count sweep for `repro ingest`.
pub const DEFAULT_INGEST_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Default epoch length (blocks between reconciles) for `repro ingest`.
pub const DEFAULT_INGEST_EPOCH: usize = 16;

/// Default epoch count for `repro store append`.
pub const DEFAULT_STORE_EPOCHS: usize = 4;

/// Default shard count for `repro store append`'s ingest replay.
pub const DEFAULT_STORE_SHARDS: usize = 4;

/// The usage string printed by `--help` and on argument errors. Derives
/// the experiment and scale lists from [`EXPERIMENTS`] / [`SCALES`] so the
/// help text cannot drift from what the parser accepts.
pub fn usage() -> String {
    let scales = SCALES.join("|");
    format!(
        "usage: repro [--scale {scales}] [experiment...]\n\
         \x20      repro snapshot save <file> [--scale {scales}]\n\
         \x20      repro snapshot query <file> [address-id...] [--top N]\n\
         \x20      repro taint [--scale {scales}] [--thefts all|name,name,...]\n\
         \x20                  [--threads N] [--max-txs M]\n\
         \x20      repro ingest [--scale {scales}] [--shards N,N,...] [--epoch K]\n\
         \x20      repro store save <dir> [--scale {scales}]\n\
         \x20      repro store open <dir> [--verify-scale {scales}]\n\
         \x20      repro store append <dir> [--scale {scales}] [--epochs K] [--shards N]\n\
         \x20      repro serve [--scale {scales}] [--port P] [--metrics-port P]\n\
         \x20                  [--workers N] [--cache N] [--event-loop] [--live]\n\
         \x20                  [--store DIR] [--epoch K] [--shards N]\n\
         experiments: all {} (default: all)\n\
         snapshot subcommands:\n\
         \x20 save  — cluster the simulated economy (refined H2 + naming) and\n\
         \x20         write the frozen ClusterSnapshot artifact to <file>\n\
         \x20 query — load <file> without re-clustering; print a summary, the\n\
         \x20         top clusters, and address-id lookups\n\
         taint — build the columnar transaction-graph index once and track\n\
         \x20        the scripted thefts concurrently over it (batch engine),\n\
         \x20        checked against and timed versus the legacy per-theft\n\
         \x20        walk; --thefts selects cases by name (default: all)\n\
         ingest — replay the economy block by block through the sharded\n\
         \x20        ingest pipeline, sweeping --shards shard counts (comma\n\
         \x20        list, each > 0) with an --epoch-block reconcile cadence,\n\
         \x20        asserting every sweep point matches the batch clusterer\n\
         \x20        and reporting per-block ingest cost\n\
         store subcommands (the on-disk columnar artifact store):\n\
         \x20 save   — build every serving artifact once and write the store\n\
         \x20          directory (chain.fst, graph.fst, snapshot.fst, serve.fst)\n\
         \x20 open   — reopen a store directory without replaying the chain;\n\
         \x20          --verify-scale rebuilds in RAM and asserts the reopened\n\
         \x20          artifacts are byte-identical, reporting the speedup\n\
         \x20 append — replay the economy through the sharded ingest pipeline,\n\
         \x20          cutting it into --epochs reconcile epochs: the first\n\
         \x20          boundary writes the base snapshot, each later one a\n\
         \x20          per-epoch delta file, verified byte-for-byte against a\n\
         \x20          full re-export\n\
         serve — bind --port first (0 = ephemeral; the bound address is\n\
         \x20        printed before artifacts build), cluster once, build the\n\
         \x20        graph, and answer the binary query protocol until killed\n\
         \x20        (--workers 0 = one per core; --cache 0 disables the\n\
         \x20        response cache); --event-loop multiplexes every\n\
         \x20        connection on one poll(2) readiness loop (pipelining,\n\
         \x20        per-connection budgets, backpressure) instead of pinning\n\
         \x20        one worker per connection; --live streams the economy's blocks\n\
         \x20        through the sharded ingest pipeline in the background,\n\
         \x20        hot-swapping fresh artifacts every --epoch blocks across\n\
         \x20        --shards shards, persisting per-epoch deltas to --store\n\
         \x20        so a restart resumes from disk; --metrics-port binds a\n\
         \x20        second listener (must differ from --port; 0 = ephemeral)\n\
         \x20        answering GET /metrics with the Prometheus text exposition",
        EXPERIMENTS.join(" ")
    )
}

/// A parsed experiment invocation: which scale, and which experiments to
/// run, in order, with duplicates removed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPlan {
    /// One of [`SCALES`].
    pub scale: String,
    /// Experiments to run, in first-mention order, deduplicated. Contains
    /// every experiment when `all` (or nothing) was requested.
    pub experiments: Vec<String>,
}

/// A fully parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run paper experiments (the default mode).
    Run(RunPlan),
    /// `snapshot save <file>`: build the economy, cluster, and write the
    /// frozen snapshot artifact.
    SnapshotSave {
        /// One of [`SCALES`].
        scale: String,
        /// Output file path.
        path: String,
    },
    /// `snapshot query <file>`: reload the artifact and serve lookups
    /// without replaying the chain.
    SnapshotQuery {
        /// Input file path.
        path: String,
        /// Address ids to look up.
        addresses: Vec<u32>,
        /// How many top clusters to print.
        top: usize,
    },
    /// `taint`: batch multi-theft taint tracking over the transaction-graph
    /// index, differentially checked against the legacy walk.
    Taint {
        /// One of [`SCALES`].
        scale: String,
        /// Theft case names to track; empty means every scripted theft.
        thefts: Vec<String>,
        /// Worker threads for the batch engine; `0` means auto-detect.
        threads: usize,
        /// Per-theft taint-walk transaction bound.
        max_txs: usize,
    },
    /// `ingest`: replay the economy through the sharded ingest pipeline
    /// across a sweep of shard counts, checking each against the batch
    /// clusterer and timing per-block cost.
    Ingest {
        /// One of [`SCALES`].
        scale: String,
        /// Shard counts to sweep, in order, each positive.
        shards: Vec<usize>,
        /// Blocks per reconcile epoch; positive.
        epoch: usize,
    },
    /// `store save <dir>`: build every serving artifact once and write the
    /// columnar store directory.
    StoreSave {
        /// One of [`SCALES`].
        scale: String,
        /// Store directory path.
        dir: String,
    },
    /// `store open <dir>`: reopen a store directory without replaying the
    /// chain, optionally verifying against an in-RAM rebuild.
    StoreOpen {
        /// Store directory path.
        dir: String,
        /// When set, rebuild the artifacts at this scale and assert the
        /// reopened ones are byte-identical.
        verify_scale: Option<String>,
    },
    /// `store append <dir>`: replay the economy through the sharded ingest
    /// pipeline, writing a base snapshot at the first epoch boundary and a
    /// delta container per later boundary.
    StoreAppend {
        /// One of [`SCALES`].
        scale: String,
        /// Store directory path.
        dir: String,
        /// Number of reconcile epochs to cut the chain into; positive.
        epochs: usize,
        /// Shard count for the ingest replay; positive.
        shards: usize,
    },
    /// `serve`: build the serving artifacts once and run the TCP query
    /// server until killed.
    Serve {
        /// One of [`SCALES`].
        scale: String,
        /// TCP port to listen on (`0` = ephemeral; the bound address is
        /// printed before the artifacts are built).
        port: u16,
        /// When set, also bind an HTTP listener on this port serving the
        /// Prometheus text exposition at `GET /metrics` (`0` =
        /// ephemeral). Must differ from `port`.
        metrics_port: Option<u16>,
        /// Worker threads; `0` means one per core.
        workers: usize,
        /// Response-cache capacity; `0` disables caching.
        cache: usize,
        /// Stream the economy through the live ingest pipeline,
        /// hot-swapping fresh artifacts into the running server at every
        /// reconcile epoch, instead of batch-building once up front.
        live: bool,
        /// Store directory for `--live` persistence (base save + per-epoch
        /// deltas); a restarted server resumes from it.
        store: Option<String>,
        /// Blocks per live reconcile epoch.
        epoch: usize,
        /// Shard count of the live ingest pipeline.
        shards: usize,
        /// Serve with the event-driven poll loop instead of the threaded
        /// connection-per-worker loop.
        event_loop: bool,
    },
}

/// How a parse can end without a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliOutcome {
    /// `--help` was requested; print [`usage`] and exit 0.
    Help,
    /// Bad arguments; print the message and exit 2.
    Error(String),
}

fn parse_scale(next: Option<&String>) -> Result<String, CliOutcome> {
    match next {
        Some(s) if SCALES.contains(&s.as_str()) => Ok(s.clone()),
        other => {
            let got = other.map(String::as_str).unwrap_or("<missing>");
            Err(CliOutcome::Error(format!("invalid --scale `{got}`")))
        }
    }
}

/// Parses `repro`'s arguments (without the program name).
///
/// Rules:
/// * duplicated experiments run once, keeping first-mention order
///   (`repro h1 fp h1` ⟹ `[h1, fp]`);
/// * `all` expands to every experiment but must stand alone — mixing it
///   with named experiments (`repro all h1`) is ambiguous (did the caller
///   want one experiment or a re-run of everything?) and is rejected;
/// * unknown experiments and bad `--scale` values are rejected;
/// * `snapshot save|query` selects the snapshot mode instead; `save` takes
///   an output path and an optional `--scale`, `query` takes an input path,
///   optional numeric address ids, and an optional `--top N`;
/// * `taint` selects the batch taint mode: optional `--scale`, `--threads`
///   and `--max-txs`, plus `--thefts` naming the cases to track (`all`, the
///   default, must stand alone — the same rule as the experiment list).
pub fn parse(args: &[String]) -> Result<Command, CliOutcome> {
    match args.first().map(String::as_str) {
        Some("snapshot") => return parse_snapshot(&args[1..]),
        Some("taint") => return parse_taint(&args[1..]),
        Some("ingest") => return parse_ingest(&args[1..]),
        Some("store") => return parse_store(&args[1..]),
        Some("serve") => return parse_serve(&args[1..]),
        _ => {}
    }
    let mut scale = "default".to_string();
    let mut named: Vec<String> = Vec::new();
    let mut saw_all = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_scale(it.next())?,
            "--help" | "-h" => return Err(CliOutcome::Help),
            "all" => saw_all = true,
            other => {
                if !EXPERIMENTS.contains(&other) {
                    return Err(CliOutcome::Error(format!("unknown experiment `{other}`")));
                }
                if !named.contains(&other.to_string()) {
                    named.push(other.to_string());
                }
            }
        }
    }
    if saw_all && !named.is_empty() {
        return Err(CliOutcome::Error(
            "`all` cannot be combined with named experiments".to_string(),
        ));
    }
    let experiments = if saw_all || named.is_empty() {
        EXPERIMENTS.iter().map(|e| e.to_string()).collect()
    } else {
        named
    };
    Ok(Command::Run(RunPlan { scale, experiments }))
}

/// Parses a positive integer option value.
fn parse_count(flag: &str, next: Option<&String>) -> Result<usize, CliOutcome> {
    match next.and_then(|s| s.parse().ok()) {
        Some(n) if n > 0 => Ok(n),
        _ => Err(CliOutcome::Error(format!("invalid {flag} value"))),
    }
}

/// Parses the arguments after the `serve` keyword.
fn parse_serve(args: &[String]) -> Result<Command, CliOutcome> {
    let mut scale = "default".to_string();
    let mut port = DEFAULT_SERVE_PORT;
    let mut metrics_port: Option<u16> = None;
    let mut workers = 0usize;
    let mut cache = DEFAULT_SERVE_CACHE;
    let mut live = false;
    let mut event_loop = false;
    let mut store: Option<String> = None;
    let mut epoch = DEFAULT_INGEST_EPOCH;
    let mut shards = DEFAULT_STORE_SHARDS;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_scale(it.next())?,
            "--help" | "-h" => return Err(CliOutcome::Help),
            "--port" => {
                port = match it.next().and_then(|s| s.parse().ok()) {
                    Some(p) => p,
                    None => return Err(CliOutcome::Error("invalid --port value".to_string())),
                };
            }
            "--metrics-port" => {
                metrics_port = match it.next().and_then(|s| s.parse().ok()) {
                    Some(p) => Some(p),
                    None => {
                        return Err(CliOutcome::Error("invalid --metrics-port value".to_string()))
                    }
                };
            }
            "--workers" => {
                workers = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return Err(CliOutcome::Error("invalid --workers value".to_string())),
                };
            }
            "--cache" => {
                cache = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return Err(CliOutcome::Error("invalid --cache value".to_string())),
                };
            }
            "--live" => live = true,
            "--event-loop" => event_loop = true,
            "--store" => {
                let Some(dir) = it.next() else {
                    return Err(CliOutcome::Error("--store requires a directory".to_string()));
                };
                store = Some(dir.clone());
            }
            "--epoch" => epoch = parse_count("--epoch", it.next())?,
            "--shards" => shards = parse_count("--shards", it.next())?,
            other => return Err(CliOutcome::Error(format!("unknown serve option `{other}`"))),
        }
    }
    if !live && store.is_some() {
        return Err(CliOutcome::Error("--store requires --live".to_string()));
    }
    // An ephemeral metrics port (0) can never collide; two explicit equal
    // ports would fight over one bind, so reject up front.
    if metrics_port == Some(port) && port != 0 {
        return Err(CliOutcome::Error("--metrics-port must differ from --port".to_string()));
    }
    Ok(Command::Serve {
        scale,
        port,
        metrics_port,
        workers,
        cache,
        live,
        store,
        epoch,
        shards,
        event_loop,
    })
}

/// Parses the arguments after the `snapshot` keyword.
fn parse_snapshot(args: &[String]) -> Result<Command, CliOutcome> {
    let sub = match args.first() {
        Some(s) if s == "--help" || s == "-h" => return Err(CliOutcome::Help),
        Some(s) => s.as_str(),
        None => {
            return Err(CliOutcome::Error(
                "snapshot requires a subcommand: save | query".to_string(),
            ))
        }
    };
    match sub {
        "save" => {
            let mut path: Option<String> = None;
            let mut scale = "default".to_string();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scale" => scale = parse_scale(it.next())?,
                    "--help" | "-h" => return Err(CliOutcome::Help),
                    other if other.starts_with('-') => {
                        return Err(CliOutcome::Error(format!("unknown option `{other}`")))
                    }
                    other if path.is_none() => path = Some(other.to_string()),
                    other => {
                        return Err(CliOutcome::Error(format!(
                            "unexpected argument `{other}` after snapshot save path"
                        )))
                    }
                }
            }
            let path = path.ok_or_else(|| {
                CliOutcome::Error("snapshot save requires an output file".to_string())
            })?;
            Ok(Command::SnapshotSave { scale, path })
        }
        "query" => {
            let mut path: Option<String> = None;
            let mut addresses = Vec::new();
            let mut top = DEFAULT_QUERY_TOP;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--top" => {
                        top = match it.next().and_then(|s| s.parse().ok()) {
                            Some(n) => n,
                            None => {
                                return Err(CliOutcome::Error("invalid --top value".to_string()))
                            }
                        };
                    }
                    "--help" | "-h" => return Err(CliOutcome::Help),
                    other if other.starts_with('-') => {
                        return Err(CliOutcome::Error(format!("unknown option `{other}`")))
                    }
                    other if path.is_none() => path = Some(other.to_string()),
                    other => match other.parse::<u32>() {
                        Ok(addr) => addresses.push(addr),
                        Err(_) => {
                            return Err(CliOutcome::Error(format!(
                                "invalid address id `{other}` (expected a number)"
                            )))
                        }
                    },
                }
            }
            let path = path.ok_or_else(|| {
                CliOutcome::Error("snapshot query requires an input file".to_string())
            })?;
            Ok(Command::SnapshotQuery { path, addresses, top })
        }
        other => Err(CliOutcome::Error(format!(
            "unknown snapshot subcommand `{other}` (expected save | query)"
        ))),
    }
}

/// Parses the arguments after the `taint` keyword.
fn parse_taint(args: &[String]) -> Result<Command, CliOutcome> {
    let mut scale = "default".to_string();
    let mut thefts: Vec<String> = Vec::new();
    let mut saw_all = false;
    let mut threads = 0usize;
    let mut max_txs = DEFAULT_TAINT_MAX_TXS;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_scale(it.next())?,
            "--help" | "-h" => return Err(CliOutcome::Help),
            "--threads" => {
                threads = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return Err(CliOutcome::Error("invalid --threads value".to_string())),
                };
            }
            "--max-txs" => {
                max_txs = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => return Err(CliOutcome::Error("invalid --max-txs value".to_string())),
                };
            }
            "--thefts" => {
                let Some(list) = it.next() else {
                    return Err(CliOutcome::Error("--thefts requires a value".to_string()));
                };
                for name in list.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        return Err(CliOutcome::Error(format!(
                            "empty theft name in `--thefts {list}`"
                        )));
                    }
                    if name == "all" {
                        saw_all = true;
                    } else if !thefts.iter().any(|t| t == name) {
                        thefts.push(name.to_string());
                    }
                }
            }
            other => {
                return Err(CliOutcome::Error(format!(
                    "unknown taint option `{other}`"
                )))
            }
        }
    }
    if saw_all && !thefts.is_empty() {
        return Err(CliOutcome::Error(
            "`all` cannot be combined with named thefts".to_string(),
        ));
    }
    Ok(Command::Taint { scale, thefts, threads, max_txs })
}

/// Parses the arguments after the `ingest` keyword.
///
/// `--shards` takes a comma list of positive shard counts (duplicates
/// collapse, first-mention order kept); `--epoch` takes the positive number
/// of blocks between cross-shard reconciles. Zero is rejected for both —
/// a zero-shard pipeline has nowhere to put an address and a zero-block
/// epoch never reconciles.
fn parse_ingest(args: &[String]) -> Result<Command, CliOutcome> {
    let mut scale = "default".to_string();
    let mut shards: Vec<usize> = DEFAULT_INGEST_SHARDS.to_vec();
    let mut epoch = DEFAULT_INGEST_EPOCH;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_scale(it.next())?,
            "--help" | "-h" => return Err(CliOutcome::Help),
            "--shards" => {
                let Some(list) = it.next() else {
                    return Err(CliOutcome::Error("invalid --shards value".to_string()));
                };
                shards = Vec::new();
                for part in list.split(',') {
                    match part.trim().parse::<usize>() {
                        Ok(n) if n > 0 => {
                            if !shards.contains(&n) {
                                shards.push(n);
                            }
                        }
                        _ => {
                            return Err(CliOutcome::Error(format!(
                                "invalid shard count `{part}` in --shards (must be > 0)"
                            )))
                        }
                    }
                }
                if shards.is_empty() {
                    return Err(CliOutcome::Error("--shards names no shard counts".to_string()));
                }
            }
            "--epoch" => epoch = parse_count("--epoch", it.next())?,
            other => {
                return Err(CliOutcome::Error(format!("unknown ingest option `{other}`")))
            }
        }
    }
    Ok(Command::Ingest { scale, shards, epoch })
}

/// Parses the arguments after the `store` keyword.
///
/// All three subcommands take the store directory as a positional argument
/// (the `snapshot save <file>` convention). `save` and `append` take
/// `--scale`; `open` instead takes `--verify-scale`, because opening never
/// builds an economy unless asked to differentially verify one. `append`'s
/// `--epochs` and `--shards` must be positive — zero epochs cuts the chain
/// into nothing and a zero-shard pipeline has nowhere to put an address.
fn parse_store(args: &[String]) -> Result<Command, CliOutcome> {
    let sub = match args.first() {
        Some(s) if s == "--help" || s == "-h" => return Err(CliOutcome::Help),
        Some(s) => s.as_str(),
        None => {
            return Err(CliOutcome::Error(
                "store requires a subcommand: save | open | append".to_string(),
            ))
        }
    };
    if !matches!(sub, "save" | "open" | "append") {
        return Err(CliOutcome::Error(format!(
            "unknown store subcommand `{sub}` (expected save | open | append)"
        )));
    }
    let mut dir: Option<String> = None;
    let mut scale = "default".to_string();
    let mut verify_scale: Option<String> = None;
    let mut epochs = DEFAULT_STORE_EPOCHS;
    let mut shards = DEFAULT_STORE_SHARDS;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(CliOutcome::Help),
            "--scale" if sub != "open" => scale = parse_scale(it.next())?,
            "--verify-scale" if sub == "open" => verify_scale = Some(parse_scale(it.next())?),
            "--epochs" if sub == "append" => epochs = parse_count("--epochs", it.next())?,
            "--shards" if sub == "append" => shards = parse_count("--shards", it.next())?,
            other if other.starts_with('-') => {
                return Err(CliOutcome::Error(format!("unknown store {sub} option `{other}`")))
            }
            other if dir.is_none() => dir = Some(other.to_string()),
            other => {
                return Err(CliOutcome::Error(format!(
                    "unexpected argument `{other}` after store {sub} directory"
                )))
            }
        }
    }
    let dir = dir.ok_or_else(|| {
        CliOutcome::Error(format!("store {sub} requires a store directory"))
    })?;
    Ok(match sub {
        "save" => Command::StoreSave { scale, dir },
        "open" => Command::StoreOpen { dir, verify_scale },
        _ => Command::StoreAppend { scale, dir, epochs, shards },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn run_plan(args_in: &[&str]) -> RunPlan {
        match parse(&args(args_in)) {
            Ok(Command::Run(plan)) => plan,
            other => panic!("expected a run plan for {args_in:?}, got {other:?}"),
        }
    }

    #[test]
    fn defaults_to_all_at_default_scale() {
        let plan = run_plan(&[]);
        assert_eq!(plan.scale, "default");
        assert_eq!(plan.experiments, EXPERIMENTS.map(String::from).to_vec());
    }

    #[test]
    fn explicit_all_expands() {
        let plan = run_plan(&["--scale", "tiny", "all"]);
        assert_eq!(plan.scale, "tiny");
        assert_eq!(plan.experiments.len(), EXPERIMENTS.len());
    }

    #[test]
    fn duplicates_run_once_preserving_order() {
        let plan = run_plan(&["h1", "fp", "h1", "fp", "h1"]);
        assert_eq!(plan.experiments, vec!["h1", "fp"]);
        // Order is first-mention, not EXPERIMENTS order.
        let plan = run_plan(&["fp", "h1"]);
        assert_eq!(plan.experiments, vec!["fp", "h1"]);
    }

    #[test]
    fn all_mixed_with_named_is_rejected() {
        for mix in [&["all", "h1"][..], &["h1", "all"], &["h1", "all", "fp"]] {
            match parse(&args(mix)) {
                Err(CliOutcome::Error(msg)) => assert!(msg.contains("all"), "{msg}"),
                other => panic!("expected error for {mix:?}, got {other:?}"),
            }
        }
        // `all all` is just `all`.
        assert!(parse(&args(&["all", "all"])).is_ok());
    }

    #[test]
    fn unknown_experiment_and_bad_scale_are_rejected() {
        assert!(matches!(parse(&args(&["bogus"])), Err(CliOutcome::Error(_))));
        assert!(matches!(parse(&args(&["--scale", "huge"])), Err(CliOutcome::Error(_))));
        assert!(matches!(parse(&args(&["--scale"])), Err(CliOutcome::Error(_))));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&args(&["-h"])), Err(CliOutcome::Help));
        assert_eq!(parse(&args(&["--help", "bogus"])), Err(CliOutcome::Help));
        assert_eq!(parse(&args(&["snapshot", "--help"])), Err(CliOutcome::Help));
        assert_eq!(parse(&args(&["snapshot", "save", "-h"])), Err(CliOutcome::Help));
        assert_eq!(parse(&args(&["snapshot", "query", "--help"])), Err(CliOutcome::Help));
    }

    #[test]
    fn snapshot_save_parses_path_and_scale() {
        assert_eq!(
            parse(&args(&["snapshot", "save", "out.snap"])).unwrap(),
            Command::SnapshotSave { scale: "default".into(), path: "out.snap".into() }
        );
        assert_eq!(
            parse(&args(&["snapshot", "save", "--scale", "tiny", "out.snap"])).unwrap(),
            Command::SnapshotSave { scale: "tiny".into(), path: "out.snap".into() }
        );
    }

    #[test]
    fn snapshot_query_parses_addresses_and_top() {
        assert_eq!(
            parse(&args(&["snapshot", "query", "out.snap"])).unwrap(),
            Command::SnapshotQuery {
                path: "out.snap".into(),
                addresses: vec![],
                top: DEFAULT_QUERY_TOP
            }
        );
        assert_eq!(
            parse(&args(&["snapshot", "query", "out.snap", "3", "17", "--top", "5"])).unwrap(),
            Command::SnapshotQuery {
                path: "out.snap".into(),
                addresses: vec![3, 17],
                top: 5
            }
        );
    }

    #[test]
    fn snapshot_errors_are_usage_errors() {
        for bad in [
            &["snapshot"][..],
            &["snapshot", "frobnicate"],
            &["snapshot", "save"],
            &["snapshot", "save", "a", "b"],
            &["snapshot", "save", "--scale", "huge", "a"],
            &["snapshot", "save", "--scael", "tiny", "a"],
            &["snapshot", "save", "--bogus"],
            &["snapshot", "query"],
            &["snapshot", "query", "a", "notanumber"],
            &["snapshot", "query", "a", "--top", "many"],
            &["snapshot", "query", "a", "--top"],
            &["snapshot", "query", "--tpo", "5", "a"],
        ] {
            assert!(
                matches!(parse(&args(bad)), Err(CliOutcome::Error(_))),
                "expected usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn taint_defaults() {
        assert_eq!(
            parse(&args(&["taint"])).unwrap(),
            Command::Taint {
                scale: "default".into(),
                thefts: vec![],
                threads: 0,
                max_txs: DEFAULT_TAINT_MAX_TXS
            }
        );
        // `--thefts all` is the explicit spelling of the default.
        assert_eq!(
            parse(&args(&["taint", "--thefts", "all"])).unwrap(),
            parse(&args(&["taint"])).unwrap()
        );
    }

    #[test]
    fn taint_parses_every_option() {
        assert_eq!(
            parse(&args(&[
                "taint", "--scale", "tiny", "--thefts", "Betcoin,Bitfloor,Betcoin",
                "--threads", "4", "--max-txs", "99"
            ]))
            .unwrap(),
            Command::Taint {
                scale: "tiny".into(),
                // Duplicates collapse, first-mention order kept.
                thefts: vec!["Betcoin".into(), "Bitfloor".into()],
                threads: 4,
                max_txs: 99
            }
        );
    }

    #[test]
    fn taint_errors_are_usage_errors() {
        for bad in [
            &["taint", "--thefts"][..],
            &["taint", "--thefts", "a,,b"],
            &["taint", "--thefts", "all,Betcoin"],
            &["taint", "--threads", "many"],
            &["taint", "--threads"],
            &["taint", "--max-txs", "0"],
            &["taint", "--max-txs", "lots"],
            &["taint", "--scale", "huge"],
            &["taint", "stray"],
            &["taint", "--bogus"],
        ] {
            assert!(
                matches!(parse(&args(bad)), Err(CliOutcome::Error(_))),
                "expected usage error for {bad:?}"
            );
        }
        assert_eq!(parse(&args(&["taint", "--help"])), Err(CliOutcome::Help));
    }

    #[test]
    fn ingest_parses_defaults_and_overrides() {
        assert_eq!(
            parse(&args(&["ingest"])).unwrap(),
            Command::Ingest {
                scale: "default".into(),
                shards: DEFAULT_INGEST_SHARDS.to_vec(),
                epoch: DEFAULT_INGEST_EPOCH
            }
        );
        assert_eq!(
            parse(&args(&[
                "ingest", "--scale", "tiny", "--shards", "2,8,2", "--epoch", "7"
            ]))
            .unwrap(),
            Command::Ingest {
                scale: "tiny".into(),
                // Duplicate shard counts collapse, order kept.
                shards: vec![2, 8],
                epoch: 7
            }
        );
    }

    #[test]
    fn ingest_rejects_zero_shards_and_zero_epoch() {
        // The tentpole's typed usage errors: a zero anywhere in --shards,
        // or a zero --epoch, is a hard parse error (exit 2), not a panic
        // deep in the pipeline.
        for bad in [
            &["ingest", "--shards", "0"][..],
            &["ingest", "--shards", "4,0"],
            &["ingest", "--shards", "x"],
            &["ingest", "--shards", ""],
            &["ingest", "--shards"],
            &["ingest", "--epoch", "0"],
            &["ingest", "--epoch", "soon"],
            &["ingest", "--epoch"],
            &["ingest", "--scale", "huge"],
            &["ingest", "--out"],
            &["ingest", "stray"],
            &["ingest", "--bogus"],
        ] {
            assert!(
                matches!(parse(&args(bad)), Err(CliOutcome::Error(_))),
                "expected usage error for {bad:?}"
            );
        }
        assert_eq!(parse(&args(&["ingest", "--help"])), Err(CliOutcome::Help));
    }

    #[test]
    fn usage_lists_every_experiment_and_the_snapshot_subcommands() {
        let usage = usage();
        for exp in EXPERIMENTS {
            assert!(usage.contains(exp), "usage is missing experiment `{exp}`");
        }
        for scale in SCALES {
            assert!(usage.contains(scale), "usage is missing scale `{scale}`");
        }
        for needle in [
            "snapshot save",
            "snapshot query",
            "--top",
            "taint",
            "--thefts",
            "ingest",
            "--shards",
            "--epoch",
            "store save",
            "store open",
            "store append",
            "--verify-scale",
            "--epochs",
            "serve",
            "--event-loop",
            "--metrics-port",
            "GET /metrics",
        ] {
            assert!(usage.contains(needle), "usage is missing `{needle}`");
        }
    }

    #[test]
    fn store_parses_every_subcommand() {
        assert_eq!(
            parse(&args(&["store", "save", "art"])).unwrap(),
            Command::StoreSave { scale: "default".into(), dir: "art".into() }
        );
        assert_eq!(
            parse(&args(&["store", "save", "--scale", "tiny", "art"])).unwrap(),
            Command::StoreSave { scale: "tiny".into(), dir: "art".into() }
        );
        assert_eq!(
            parse(&args(&["store", "open", "art"])).unwrap(),
            Command::StoreOpen { dir: "art".into(), verify_scale: None }
        );
        assert_eq!(
            parse(&args(&["store", "open", "art", "--verify-scale", "tiny"])).unwrap(),
            Command::StoreOpen {
                dir: "art".into(),
                verify_scale: Some("tiny".into())
            }
        );
        assert_eq!(
            parse(&args(&["store", "append", "art"])).unwrap(),
            Command::StoreAppend {
                scale: "default".into(),
                dir: "art".into(),
                epochs: DEFAULT_STORE_EPOCHS,
                shards: DEFAULT_STORE_SHARDS
            }
        );
        let Command::StoreAppend { epochs, shards, .. } = parse(&args(&[
            "store", "append", "art", "--epochs", "7", "--shards", "2",
        ]))
        .unwrap() else {
            panic!("expected store append");
        };
        assert_eq!((epochs, shards), (7, 2));
    }

    #[test]
    fn store_errors_are_usage_errors() {
        for bad in [
            &["store"][..],
            &["store", "frobnicate"],
            &["store", "save"],
            &["store", "save", "a", "b"],
            &["store", "save", "--scale", "huge", "a"],
            // open builds no economy: --scale belongs to save/append only.
            &["store", "open", "a", "--scale", "tiny"],
            &["store", "open", "a", "--verify-scale", "huge"],
            &["store", "open", "a", "--verify-scale"],
            &["store", "append", "a", "--epochs", "0"],
            &["store", "append", "a", "--epochs", "soon"],
            &["store", "append", "a", "--shards", "0"],
            &["store", "append", "--epochs", "2"],
            &["store", "save", "a", "--verify-scale", "tiny"],
            &["store", "save", "--bogus"],
            &["store", "open", "--out"],
        ] {
            assert!(
                matches!(parse(&args(bad)), Err(CliOutcome::Error(_))),
                "expected usage error for {bad:?}"
            );
        }
        assert_eq!(parse(&args(&["store", "--help"])), Err(CliOutcome::Help));
        assert_eq!(parse(&args(&["store", "open", "-h"])), Err(CliOutcome::Help));
    }

    #[test]
    fn serve_parses_defaults_and_overrides() {
        assert_eq!(
            parse(&args(&["serve"])).unwrap(),
            Command::Serve {
                scale: "default".into(),
                port: DEFAULT_SERVE_PORT,
                metrics_port: None,
                workers: 0,
                cache: DEFAULT_SERVE_CACHE,
                live: false,
                store: None,
                epoch: DEFAULT_INGEST_EPOCH,
                shards: DEFAULT_STORE_SHARDS,
                event_loop: false
            }
        );
        assert_eq!(
            parse(&args(&[
                "serve", "--scale", "tiny", "--port", "9000", "--metrics-port", "9100",
                "--workers", "4", "--cache", "0", "--event-loop"
            ]))
            .unwrap(),
            Command::Serve {
                scale: "tiny".into(),
                port: 9000,
                metrics_port: Some(9100),
                workers: 4,
                cache: 0,
                live: false,
                store: None,
                epoch: DEFAULT_INGEST_EPOCH,
                shards: DEFAULT_STORE_SHARDS,
                event_loop: true
            }
        );
        assert_eq!(
            parse(&args(&[
                "serve", "--live", "--store", "/tmp/s", "--epoch", "8", "--shards", "2"
            ]))
            .unwrap(),
            Command::Serve {
                scale: "default".into(),
                port: DEFAULT_SERVE_PORT,
                metrics_port: None,
                workers: 0,
                cache: DEFAULT_SERVE_CACHE,
                live: true,
                store: Some("/tmp/s".into()),
                epoch: 8,
                shards: 2,
                event_loop: false
            }
        );
        // Two ephemeral ports never collide, so `0 0` stays legal.
        let Command::Serve { metrics_port, .. } =
            parse(&args(&["serve", "--port", "0", "--metrics-port", "0"])).unwrap()
        else {
            panic!("expected serve");
        };
        assert_eq!(metrics_port, Some(0));
        // The event loop composes with live ingest: hot swaps publish
        // into either serving loop.
        let Command::Serve { live, event_loop, .. } =
            parse(&args(&["serve", "--live", "--event-loop"])).unwrap()
        else {
            panic!("expected serve");
        };
        assert!(live && event_loop);
    }

    #[test]
    fn serve_errors_are_usage_errors() {
        for bad in [
            &["serve", "--port", "notaport"][..],
            &["serve", "--port", "99999"],
            &["serve", "--workers", "many"],
            &["serve", "--cache"],
            &["serve", "--scale", "huge"],
            &["serve", "stray"],
            &["serve", "--live", "--epoch", "0"],
            &["serve", "--live", "--shards", "0"],
            &["serve", "--live", "--store"],
            &["serve", "--store", "/tmp/s"], // --store without --live
            &["serve", "--metrics-port", "notaport"],
            &["serve", "--metrics-port"],
            // Binary and scrape listener on one explicit port.
            &["serve", "--port", "9000", "--metrics-port", "9000"],
        ] {
            assert!(
                matches!(parse(&args(bad)), Err(CliOutcome::Error(_))),
                "expected usage error for {bad:?}"
            );
        }
        assert_eq!(parse(&args(&["serve", "--help"])), Err(CliOutcome::Help));
    }
}
