//! What one run of one workload measures, and how it is paced and reported.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use flowc_report::Json;

use crate::stats::{median, percentile, tail_mean};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exactly solved γ sweeps through one session per circuit.
    SweepExact,
    /// Time-budgeted γ sweeps of the circuits the solver cannot close.
    SweepBudgeted,
    /// Large circuits on the heuristic rung, a fresh session per design.
    MapLarge,
    /// A live `flowc-serve` under a mixed closed-loop job stream.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepExact,
        Workload::SweepBudgeted,
        Workload::MapLarge,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepExact => "sweep-exact",
            Workload::SweepBudgeted => "sweep-budgeted",
            Workload::MapLarge => "map-large",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The checkout the ledger was built in (the parent of its package).
pub fn repo_root() -> PathBuf {
    let ledger = Path::new(env!("CARGO_MANIFEST_DIR"));
    ledger.parent().unwrap_or(ledger).to_path_buf()
}

/// Where runs write trace files, server scratch directories and result
/// files unless told otherwise: `out/` in the ledger's package directory.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Drives job order and every seeded draw.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// One circuit, one pass (20 jobs for serve): a smoke test.
    pub quick: bool,
    /// Where trace files and the server's scratch directories go.
    pub out_dir: PathBuf,
}

impl RunOptions {
    /// Whether pass `index` records spans. A traced run starts with a plain
    /// warm-up pass whose latencies are set aside, then alternates traced
    /// and plain passes, so the overhead is measured under the same
    /// conditions.
    pub fn traced_pass(&self, index: usize) -> bool {
        self.trace && index % 2 == 1
    }
}

/// Decides whether another pass fits in the run: passes repeat while the
/// next one, at the mean time a pass has taken so far (its set-up
/// included), would still end within the run length. Always at least one
/// pass (three when tracing: the warm-up, one traced and one plain).
pub struct Pacer {
    start: Instant,
    seconds: f64,
    min_passes: usize,
    max_passes: usize,
    passes: usize,
}

impl Pacer {
    /// A pacer for `opts`, started now.
    pub fn new(opts: &RunOptions) -> Pacer {
        let min_passes = if opts.trace { 3 } else { 1 };
        Pacer {
            start: Instant::now(),
            seconds: opts.seconds,
            min_passes,
            max_passes: if opts.quick { min_passes } else { usize::MAX },
            passes: 0,
        }
    }

    /// Whether to start another pass.
    pub fn another(&self) -> bool {
        let n = self.passes;
        if n < self.min_passes {
            return true;
        }
        if n >= self.max_passes {
            return false;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed + elapsed / n as f64 <= self.seconds
    }

    /// Counts a finished pass.
    pub fn done(&mut self) {
        self.passes += 1;
    }

    /// Passes run so far.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

/// Which job of a pass a latency belongs to: the same key names the same
/// job, with the same input and the same place in its session, in every
/// pass of a run.
pub type JobKey = (usize, usize);

/// The fastest time seen for each item a run repeats (a job, a set-up).
///
/// Every pass of a run repeats the same work: the solver's node counts and
/// the designs repeat exactly. The host's speed does not: on the 2-vCPU VM
/// the ledger was built on, a fixed CPU loop takes between about 14 ms and
/// 24 ms a round on either CPU, switching within a second and at times
/// staying slow for a minute. An item's fastest repetition is what the
/// code costs when the host lets it run; medians over passes instead
/// follow the share of slow phases in the run.
#[derive(Debug, Default)]
pub struct Fastest(BTreeMap<JobKey, f64>);

impl Fastest {
    /// Records one repetition of `key`.
    pub fn record(&mut self, key: JobKey, value: f64) {
        let fastest = self.0.entry(key).or_insert(value);
        *fastest = fastest.min(value);
    }

    /// Each item's fastest repetition, in key order.
    pub fn values(&self) -> Vec<f64> {
        self.0.values().copied().collect()
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up item's fastest round, seconds; `setup_s` is their sum.
    pub setup: Fastest,
    /// Job latencies of each plain pass, milliseconds.
    pub plain: Vec<Vec<f64>>,
    /// Job latencies of each traced pass, milliseconds.
    pub traced: Vec<Vec<f64>>,
    /// Each job's fastest plain pass, milliseconds.
    pub best: Fastest,
    /// Jobs shipped and wall seconds of each plain pass.
    pub pass_jobs: Vec<(usize, f64)>,
    /// Σ S, Σ D and the mean relative optimality gap of each pass's
    /// designs. Passes repeat the same jobs, so the first pass is reported:
    /// every run has one.
    pub pass_quality: Vec<[f64; 3]>,
    /// Designs shipped (denominator of the quality shares).
    pub designs: usize,
    /// Designs proven optimal.
    pub proven: usize,
    /// Designs shipped below the first-choice rung.
    pub degraded: usize,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that errored, were refused, or failed the correctness gate.
    pub failed: usize,
    /// Of those, the ones whose output was wrong.
    pub incorrect: usize,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Peak resident set of the synthesizing process, MiB.
    pub peak_rss_mb: f64,
    /// Passes run.
    pub passes: usize,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Workload-specific provenance and absolute layer figures.
    pub detail: Vec<(String, Json)>,
}

impl Measured {
    /// Counts one failure, keeping its description for the report.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Counts one wrong output (a failure that also fails the run).
    pub fn mismatch(&mut self, why: String) {
        self.incorrect += 1;
        self.fail(why);
    }

    /// Files one pass's shipped jobs' latencies: a traced pass's for the
    /// overhead figure, a plain pass's for the end-to-end metrics, a traced
    /// run's warm-up pass nowhere.
    pub fn timed_pass(
        &mut self,
        traced: bool,
        warmup: bool,
        latencies: Vec<(JobKey, f64)>,
        wall_s: f64,
    ) {
        let ms = latencies.iter().map(|&(_, ms)| ms).collect();
        if traced {
            self.traced.push(ms);
        } else if !warmup {
            self.pass_jobs.push((latencies.len(), wall_s));
            self.plain.push(ms);
            for (key, ms) in latencies {
                self.best.record(key, ms);
            }
        }
    }

    /// Jobs timed in plain passes.
    pub fn plain_jobs(&self) -> usize {
        self.plain.iter().map(Vec::len).sum()
    }

    /// Counts one shipped design's quality.
    pub fn ship(&mut self, optimal: bool, degraded: bool) {
        self.designs += 1;
        self.proven += usize::from(optimal);
        self.degraded += usize::from(degraded);
    }

    /// Records one pass's quality from its designs' (S, D, gap).
    pub fn pass_quality(&mut self, designs: impl Iterator<Item = (f64, f64, f64)>) {
        let (mut s, mut d, mut gaps) = (0.0, 0.0, Vec::new());
        for (ds, dd, gap) in designs {
            s += ds;
            d += dd;
            gaps.push(gap);
        }
        self.pass_quality.push([s, d, mean(&gaps)]);
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. Every time is taken
    /// at its fastest repetition ([`Fastest`]): the latencies over each
    /// job's fastest plain pass, `designs_per_s` from the fastest plain
    /// pass, `setup_s` over each set-up item's fastest round.
    pub fn end_to_end(&self) -> [f64; END_TO_END.len()] {
        let best = self.best.values();
        let rate = self
            .pass_jobs
            .iter()
            .map(|&(jobs, wall)| jobs as f64 / wall)
            .fold(0.0, f64::max);
        let [s, d, gap] = self.pass_quality.first().copied().unwrap_or_default();
        [
            self.setup.values().iter().sum(),
            p50(&best).unwrap_or(0.0),
            tail_mean(&best).unwrap_or(0.0),
            rate,
            s,
            d,
            gap,
            self.peak_rss_mb,
        ]
    }

    /// The quality shares and tracing figures every traced run reports, in
    /// addition to its layers.
    pub fn common_layers(&self) -> Vec<(&'static str, f64)> {
        let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let median_p50 =
            |passes: &[Vec<f64>]| median(&passes.iter().filter_map(|p| p50(p)).collect::<Vec<_>>());
        let overhead = match (median_p50(&self.traced), median_p50(&self.plain)) {
            (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
            _ => 0.0,
        };
        vec![
            ("quality.proven_frac", share(self.proven, self.designs)),
            ("quality.degraded_frac", share(self.degraded, self.designs)),
            ("quality.failed_frac", share(self.failed, self.attempted)),
            ("trace.overhead_frac", overhead),
        ]
    }
}

/// Median latency (nearest rank) of one pass.
fn p50(latencies: &[f64]) -> Option<f64> {
    percentile(latencies, 50.0)
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// End-to-end metric names and units, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("designs_per_s", "1/s"),
    ("semiperimeter_total", "wires"),
    ("max_dimension_total", "wires"),
    ("gap_mean", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metric names and units, as in `BENCHMARK.json`. Every traced
/// run reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("logic.parse_ms", "ms"),
    ("normalize.ms", "ms"),
    ("bdd.build_ms", "ms"),
    ("bdd.nodes", "count"),
    ("bdd.cache_hits", "count"),
    ("graph.extract_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("label.ms", "ms"),
    ("label.share", "fraction"),
    ("label.bnb_nodes", "count"),
    ("label.bnb_nodes_per_s", "1/s"),
    ("label.first_incumbent_ms", "ms"),
    ("label.cache_hits", "count"),
    ("label.warm_accepted", "count"),
    ("label.rung.exact-mip", "count"),
    ("label.rung.exact-oct", "count"),
    ("label.rung.anytime-mip", "count"),
    ("label.rung.heuristic-oct", "count"),
    ("label.rung.all-vh", "count"),
    ("map.ms", "ms"),
    ("map.devices", "count"),
    ("verify.ms", "ms"),
    ("verify.assignments", "count"),
    ("formal.prove_ms", "ms"),
    ("formal.proven_frac", "fraction"),
    ("incremental.patch_ms_p50", "ms"),
    ("incremental.resolved_frac", "fraction"),
    ("incremental.cold", "count"),
    ("session.cache_hit_rate", "fraction"),
    ("serve.http_rtt_ms", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_tail", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_tail", "ms"),
    ("serve.worker_ms_p50", "ms"),
    ("serve.worker_ms_tail", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.shed", "count"),
    ("serve.breaker_trips", "count"),
    ("serve.exhausted_frac", "fraction"),
    ("journal.records_appended", "count"),
    ("quality.proven_frac", "fraction"),
    ("quality.degraded_frac", "fraction"),
    ("quality.failed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.layer_cover_min", "fraction"),
];

/// Peak resident set size of process `pid` (`"self"` for this one), MiB,
/// from the kernel's `VmHWM` line; 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of `BENCHMARK.json`'s `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json = Json::parse(&text).expect("parse BENCHMARK.json");
        json.get(section)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_ledger_reports() {
        let pairs = |list: &[(&str, &str)]| {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn the_pacer_runs_whole_passes_within_the_run_length() {
        let opts = |trace, quick| RunOptions {
            seed: 1,
            seconds: 0.0,
            trace,
            quick,
            out_dir: default_out_dir(),
        };
        let mut p = Pacer::new(&opts(false, false));
        assert!(p.another(), "every run has a first pass");
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.done();
        assert!(!p.another(), "no time left for a second");
        let mut p = Pacer::new(&opts(true, true));
        for _ in 0..3 {
            assert!(
                p.another(),
                "a traced run has a warm-up, a traced and a plain pass"
            );
            p.done();
        }
        assert!(!p.another());
        assert!(opts(true, false).traced_pass(1) && !opts(true, false).traced_pass(2));
    }

    #[test]
    fn times_are_taken_at_each_items_fastest_repetition() {
        let mut m = Measured::default();
        // Two passes of the same three jobs; the host was slow for job
        // (0, 1) in the first pass and for the others in the second.
        m.timed_pass(
            false,
            false,
            vec![((0, 0), 10.0), ((0, 1), 40.0), ((1, 0), 30.0)],
            0.1,
        );
        m.timed_pass(
            false,
            false,
            vec![((0, 0), 14.0), ((0, 1), 20.0), ((1, 0), 45.0)],
            0.2,
        );
        // A traced pass's and a warm-up's latencies do not count.
        m.timed_pass(true, false, vec![((0, 0), 1.0)], 0.01);
        m.timed_pass(false, true, vec![((0, 0), 1.0)], 0.01);
        m.setup.record((0, 0), 0.5);
        m.setup.record((1, 0), 0.25);
        m.setup.record((0, 0), 0.75);
        assert_eq!(m.best.values(), vec![10.0, 20.0, 30.0]);
        let [setup, p50, tail, rate, ..] = m.end_to_end();
        assert_eq!((setup, p50, tail), (0.75, 20.0, 30.0));
        assert!(
            (rate - 30.0).abs() < 1e-9,
            "the fastest pass: 3 jobs in 0.1 s"
        );
    }
}
