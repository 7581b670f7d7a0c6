//! What one run of one workload produced, and how it is printed: a
//! readable block, a `DETAIL` line the runner and `compare` read, and as
//! the last line the object the benchmark contract asks for.

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats::{self, Summary};
use std::collections::BTreeMap;

/// One correctness check that ran.
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Options of one workload run.
#[derive(Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// When the process started: the first set-up is timed from here.
    pub started: std::time::Instant,
}

impl RunOpts {
    pub fn scale(&self) -> crate::economy::Scale {
        if self.smoke {
            crate::economy::Scale::SMOKE
        } else {
            crate::economy::Scale::FULL
        }
    }

    /// The tracer the set-up's stages record into: on in a traced run.
    pub fn setup_tracer(&self) -> crate::trace::Tracer {
        if self.trace {
            crate::trace::Tracer::on(self.started, 64)
        } else {
            crate::trace::Tracer::off()
        }
    }

    /// Complete set-ups per untraced run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            3
        }
    }

    /// Timed windows of a serve workload: one a second, never fewer
    /// than five.
    pub fn windows(&self) -> usize {
        (self.seconds.round() as usize).max(5)
    }
}

pub struct Outcome {
    pub workload: &'static str,
    pub opts: RunOpts,
    /// Operations attempted and failed in the timed phase.
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, Summary>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Samples the tail percentile was read from.
    pub tail_samples: usize,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, opts: RunOpts) -> Outcome {
        Outcome {
            workload,
            opts,
            attempted: 0,
            failed: 0,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            tail_samples: 0,
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Records an end-to-end metric from its per-window or per-pass
    /// values (a single value for one read once, like peak memory).
    pub fn measure(&mut self, name: &'static str, values: &[f64]) {
        let spec = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        let lower = spec.better == catalog::Better::Lower;
        self.end_to_end.insert(name, Summary::of(values, lower));
    }

    /// Records `setup_s` from the first set-up's time and `again`, a whole
    /// set-up made and dropped, run until there are `setup_reps` times.
    /// The caller has by now measured the workload, read its peak memory
    /// and dropped the first set-up, so that memory reading belongs to
    /// one set-up and one workload, whatever the allocator keeps of the
    /// repeats.
    pub fn measure_setup<E>(
        &mut self,
        first_s: f64,
        mut again: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        let mut times = vec![first_s];
        while times.len() < self.opts.setup_reps() {
            let began = std::time::Instant::now();
            again()?;
            times.push(began.elapsed().as_secs_f64());
        }
        self.measure("setup_s", &times);
        Ok(())
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.per_layer.insert(name, value);
    }

    /// Correct when every check passed, none failed to run, and no
    /// operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.checks.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The percentile this workload's `latency_tail_us` is read at.
    pub fn tail_percentile(&self) -> u32 {
        catalog::workload(self.workload)
            .expect("known workload")
            .tail_percentile
    }

    /// The contract's result object: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub fn contract_json(&self) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(String, Json)> = if self.opts.trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = self.per_layer.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), metric(v, m.unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        metric(self.end_to_end[m.name].value, m.unit),
                    )
                })
                .collect()
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Everything the run knows, for result files and `compare`.
    pub fn detail_json(&self) -> Json {
        let end_to_end = END_TO_END
            .iter()
            .filter_map(|m| self.end_to_end.get(m.name).map(|s| (m, s)))
            .map(|(m, s)| {
                let fields = vec![
                    ("value", Json::Num(s.value)),
                    ("unit", Json::str(m.unit)),
                    ("median", Json::Num(s.median)),
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                    ("n", Json::Num(s.n as f64)),
                    ("better", Json::str(m.better.label())),
                    ("bound", Json::Num(m.bound)),
                ];
                (m.name.to_string(), Json::obj(fields))
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .filter_map(|m| self.per_layer.get(m.name).map(|v| (m, v)))
            .map(|(m, v)| {
                let fields = vec![("value", Json::Num(*v)), ("unit", Json::str(m.unit))];
                (m.name.to_string(), Json::obj(fields))
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", Json::str(c.name)),
                    ("passed", Json::Bool(c.passed)),
                    ("detail", Json::str(&c.detail)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.opts.seed as f64)),
            ("seconds", Json::Num(self.opts.seconds)),
            ("traced", Json::Bool(self.opts.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            ("tail_percentile", Json::Num(self.tail_percentile() as f64)),
            ("tail_samples", Json::Num(self.tail_samples as f64)),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", Json::Obj(per_layer)),
            ("checks", Json::Arr(checks)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
        ])
    }

    /// Prints the readable block, the `DETAIL` line, and the result line.
    pub fn print(&self) {
        let spec = catalog::workload(self.workload).expect("known workload");
        println!(
            "workload {}  seed {}  {} s timed  {}  (one operation: {})",
            self.workload,
            self.opts.seed,
            self.opts.seconds,
            if self.opts.trace {
                "traced"
            } else {
                "untraced"
            },
            spec.op
        );
        for m in &END_TO_END {
            let Some(s) = self.end_to_end.get(m.name) else {
                continue;
            };
            let name = if m.name == "latency_tail_us" {
                format!("{} (p{})", m.name, spec.tail_percentile)
            } else {
                m.name.to_string()
            };
            println!(
                "  {name:<24} {:>14.4} {:<4} best quartile of {}  (median {:.4}, range {:.4} .. {:.4})  bound {:.0} %",
                s.value,
                m.unit,
                s.n,
                s.median,
                s.min,
                s.max,
                m.bound * 100.0
            );
        }
        if !self.end_to_end.is_empty() {
            println!(
                "  {:<24} {:>14.6} {:<4} {} failed of {} attempted",
                "failed_share",
                self.failed_share(),
                "",
                self.failed,
                self.attempted
            );
        }
        for m in &PER_LAYER {
            if let Some(v) = self.per_layer.get(m.name) {
                println!("  {:<36} {:>16.4} {}", m.name, v, m.unit);
            }
        }
        if self.tail_samples > 0 {
            let supported = stats::highest_supported_tail(self.tail_samples);
            let met = supported.is_some_and(|p| p >= spec.tail_percentile);
            println!(
                "  tail p{} read from {} samples, {} beyond it{}",
                spec.tail_percentile,
                self.tail_samples,
                stats::beyond(self.tail_samples, spec.tail_percentile),
                if met {
                    ""
                } else {
                    "  ** fewer than 10: read it as indicative only **"
                }
            );
        }
        for c in &self.checks {
            println!(
                "  check {:<32} {}  {}",
                c.name,
                if c.passed { "ok" } else { "FAILED" },
                c.detail
            );
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
        println!("DETAIL {}", self.detail_json().emit());
        println!("{}", self.contract_json().emit());
    }
}
