//! Argument parsing for the `repro` binary, factored out so the dedupe,
//! `all`-mixing, and `serve` option rules are unit-testable without
//! spawning the binary.

/// Every experiment `repro` knows, in presentation order.
pub const EXPERIMENTS: [&str; 8] = ["tab1", "h1", "fp", "super", "h2", "fig2", "tab2", "tab3"];

/// The simulation scales `--scale` accepts.
pub const SCALES: [&str; 3] = ["tiny", "default", "paper"];

/// The taint-walk transaction bound: per theft in `tab3`, and per
/// `TaintTrace` request in `repro serve`.
pub const DEFAULT_TAINT_MAX_TXS: usize = 5_000;

/// Default port for `repro serve`.
pub const DEFAULT_SERVE_PORT: u16 = 7833;

/// Default response-cache capacity for `repro serve`.
pub const DEFAULT_SERVE_CACHE: usize = 4096;

/// Default epoch length (blocks between reconciles) for `repro serve
/// --live`.
pub const DEFAULT_SERVE_EPOCH: usize = 16;

/// Default shard count of `repro serve --live`'s ingest pipeline.
pub const DEFAULT_SERVE_SHARDS: usize = 4;

/// Largest `--workers` value `repro serve` accepts: each is a thread.
pub const MAX_SERVE_WORKERS: usize = 256;

/// Largest `--shards` value: each shard past the first is a thread
/// started every epoch to decide Heuristic 2 over its chunk of the epoch.
pub const MAX_SERVE_SHARDS: usize = 64;

/// Largest `--cache` value: the cache allocates its capacity up front.
pub const MAX_SERVE_CACHE: usize = 1 << 20;

/// The usage string printed by `--help` and on argument errors. Derives
/// the experiment and scale lists from [`EXPERIMENTS`] / [`SCALES`] so the
/// help text cannot drift from what the parser accepts.
pub fn usage() -> String {
    let scales = SCALES.join("|");
    format!(
        "usage: repro [--scale {scales}] [experiment...]\n\
         \x20      repro serve [--scale {scales}] [--port P] [--metrics-port P]\n\
         \x20                  [--workers N] [--cache N] [--event-loop] [--live]\n\
         \x20                  [--store DIR] [--epoch K] [--shards N]\n\
         experiments: all {} (default: all)\n\
         serve — bind --port first (0 = ephemeral; the bound address is\n\
         \x20        printed before artifacts build), cluster once, build the\n\
         \x20        graph, and answer the binary query protocol until killed\n\
         \x20        (--workers 0 = one per core, at most {MAX_SERVE_WORKERS};\n\
         \x20        --cache 0 disables the response cache, at most\n\
         \x20        {MAX_SERVE_CACHE} entries); --event-loop multiplexes every\n\
         \x20        connection on one poll(2) readiness loop (pipelining,\n\
         \x20        per-connection budgets, backpressure) instead of pinning\n\
         \x20        one worker per connection; --live streams the economy's blocks\n\
         \x20        through the sharded ingest pipeline in the background,\n\
         \x20        hot-swapping fresh artifacts every --epoch blocks, with\n\
         \x20        Heuristic 2 decided on --shards threads (at most\n\
         \x20        {MAX_SERVE_SHARDS}), persisting per-epoch deltas to --store so\n\
         \x20        a restart resumes from disk; --metrics-port binds a second\n\
         \x20        listener (must differ from --port; 0 = ephemeral) answering\n\
         \x20        GET /metrics with the Prometheus text exposition",
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
/// * a leading `serve` selects the query server instead (see [`usage`]).
pub fn parse(args: &[String]) -> Result<Command, CliOutcome> {
    if args.first().is_some_and(|a| a == "serve") {
        return parse_serve(&args[1..]);
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

/// Parses an integer option value in `min..=max`.
fn parse_count(
    flag: &str,
    next: Option<&String>,
    min: usize,
    max: usize,
) -> Result<usize, CliOutcome> {
    match next.and_then(|s| s.parse().ok()) {
        Some(n) if (min..=max).contains(&n) => Ok(n),
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
    let mut epoch = DEFAULT_SERVE_EPOCH;
    let mut shards = DEFAULT_SERVE_SHARDS;
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
            "--workers" => workers = parse_count("--workers", it.next(), 0, MAX_SERVE_WORKERS)?,
            "--cache" => cache = parse_count("--cache", it.next(), 0, MAX_SERVE_CACHE)?,
            "--live" => live = true,
            "--event-loop" => event_loop = true,
            "--store" => {
                let Some(dir) = it.next() else {
                    return Err(CliOutcome::Error("--store requires a directory".to_string()));
                };
                store = Some(dir.clone());
            }
            "--epoch" => epoch = parse_count("--epoch", it.next(), 1, usize::MAX)?,
            "--shards" => shards = parse_count("--shards", it.next(), 1, MAX_SERVE_SHARDS)?,
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
        // `serve` is the only subcommand; any other word is an experiment.
        for word in ["bogus", "snapshot", "ingest", "store"] {
            assert!(matches!(parse(&args(&[word])), Err(CliOutcome::Error(_))), "{word}");
        }
        assert!(matches!(parse(&args(&["--scale", "huge"])), Err(CliOutcome::Error(_))));
        assert!(matches!(parse(&args(&["--scale"])), Err(CliOutcome::Error(_))));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&args(&["-h"])), Err(CliOutcome::Help));
        assert_eq!(parse(&args(&["--help", "bogus"])), Err(CliOutcome::Help));
    }

    #[test]
    fn usage_lists_every_experiment_and_the_serve_options() {
        let usage = usage();
        for exp in EXPERIMENTS {
            assert!(usage.contains(exp), "usage is missing experiment `{exp}`");
        }
        for scale in SCALES {
            assert!(usage.contains(scale), "usage is missing scale `{scale}`");
        }
        for needle in [
            "repro serve",
            "--live",
            "--store",
            "--shards",
            "--epoch",
            "--event-loop",
            "--metrics-port",
            "GET /metrics",
        ] {
            assert!(usage.contains(needle), "usage is missing `{needle}`");
        }
        for gone in ["repro snapshot", "repro ingest", "repro store"] {
            assert!(!usage.contains(gone), "usage still lists `{gone}`");
        }
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
                epoch: DEFAULT_SERVE_EPOCH,
                shards: DEFAULT_SERVE_SHARDS,
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
                epoch: DEFAULT_SERVE_EPOCH,
                shards: DEFAULT_SERVE_SHARDS,
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
            // Counts that size threads or allocations are bounded.
            &["serve", "--workers", "257"],
            &["serve", "--live", "--shards", "65"],
            &["serve", "--cache", "1048577"],
            &["serve", "--cache", "18446744073709551615"],
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
        // The bounds themselves are accepted.
        let max = ["serve", "--live", "--workers", "256", "--shards", "64", "--cache", "1048576"];
        let parsed = parse(&args(&max));
        assert!(matches!(parsed, Ok(Command::Serve { workers: 256, shards: 64, cache: 1048576, .. })));
    }
}
