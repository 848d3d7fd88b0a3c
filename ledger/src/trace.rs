//! Spans recorded by the ledger around each layer's public call. They are
//! kept in memory, written as JSON lines when the run ends, and reduced to
//! per-layer totals from which every per-layer metric is computed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use flowc_report::Json;

/// One timed call: `job` groups the spans of one design or request.
#[derive(Debug, Clone)]
pub struct Span {
    /// The job the span belongs to.
    pub job: u64,
    /// Unique span id within the run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The layer, named after its module (`bdd`, `label`, `serve.submit`, ...).
    pub layer: &'static str,
    /// Start offset from the recorder's origin, microseconds.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Counts and outcomes observed at the boundary.
    pub fields: Vec<(&'static str, Json)>,
}

/// A span that has started but not yet closed.
pub struct Open {
    /// The id children of this span name as their parent.
    pub id: u64,
    start: Instant,
}

/// In-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    next: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            next: 0,
        }
    }
}

impl Recorder {
    /// Starts a span.
    pub fn open(&mut self) -> Open {
        self.next += 1;
        Open {
            id: self.next,
            start: Instant::now(),
        }
    }

    /// Closes `open` now and stores it.
    pub fn close(
        &mut self,
        open: Open,
        job: u64,
        parent: Option<u64>,
        layer: &'static str,
        fields: Vec<(&'static str, Json)>,
    ) {
        self.close_at(open, Instant::now(), job, parent, layer, fields)
    }

    /// Closes `open` as of `end` (for a span whose fields arrive later).
    pub fn close_at(
        &mut self,
        open: Open,
        end: Instant,
        job: u64,
        parent: Option<u64>,
        layer: &'static str,
        fields: Vec<(&'static str, Json)>,
    ) {
        let dur = end.saturating_duration_since(open.start);
        self.spans.push(Span {
            job,
            id: open.id,
            parent,
            layer,
            start_us: open.start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            fields,
        });
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span:
    /// `{job, span, parent, layer, start_us, dur_us, fields}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("job".into(), Json::Num(s.job as f64)),
                ("span".into(), Json::Num(s.id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("layer".into(), Json::str(s.layer)),
                ("start_us".into(), Json::Num(s.start_us)),
                ("dur_us".into(), Json::Num(s.dur_us)),
                (
                    "fields".into(),
                    Json::Obj(
                        s.fields
                            .iter()
                            .map(|(k, v)| ((*k).to_string(), v.clone()))
                            .collect(),
                    ),
                ),
            ]);
            writeln!(out, "{}", line.to_compact())?;
        }
        out.flush()
    }
}

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval covered by its children.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = lo;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.dur_us - covered).max(0.0)
        })
        .collect()
}

/// Per-layer sums over a set of spans: span count, total duration, and the
/// total of every numeric (or boolean) field.
#[derive(Debug, Default)]
pub struct Totals {
    count: BTreeMap<&'static str, usize>,
    dur_us: BTreeMap<&'static str, f64>,
    fields: BTreeMap<(&'static str, String), f64>,
}

impl Totals {
    /// Sums `spans`. String fields count as one under `field.value`
    /// (e.g. the label span's `rung` becomes `rung.anytime-mip`).
    pub fn of(spans: &[Span]) -> Totals {
        let mut t = Totals::default();
        for s in spans {
            *t.count.entry(s.layer).or_default() += 1;
            *t.dur_us.entry(s.layer).or_default() += s.dur_us;
            for (k, v) in &s.fields {
                let (key, x) = match v {
                    Json::Num(x) => ((*k).to_string(), *x),
                    Json::Bool(b) => ((*k).to_string(), f64::from(u8::from(*b))),
                    Json::Str(name) => (format!("{k}.{name}"), 1.0),
                    _ => continue,
                };
                *t.fields.entry((s.layer, key)).or_default() += x;
            }
        }
        t
    }

    /// Spans recorded for `layer`.
    pub fn count(&self, layer: &str) -> usize {
        self.count.get(layer).copied().unwrap_or(0)
    }

    /// Total duration of `layer`'s spans, milliseconds.
    pub fn ms(&self, layer: &str) -> f64 {
        self.dur_us.get(layer).copied().unwrap_or(0.0) / 1e3
    }

    /// Total of `field` over `layer`'s spans.
    pub fn field(&self, layer: &'static str, field: &str) -> f64 {
        self.fields
            .get(&(layer, field.to_string()))
            .copied()
            .unwrap_or(0.0)
    }
}

/// The smallest share of a root span's duration covered by its children,
/// over every root span named `layer` (1 when there is none).
pub fn min_child_cover(spans: &[Span], layer: &str) -> f64 {
    let selfs = self_times_us(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.layer == layer && s.dur_us > 0.0)
        .map(|(s, own)| 1.0 - own / s.dur_us)
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: f64, dur: f64) -> Span {
        Span {
            job: 1,
            id,
            parent,
            layer,
            start_us: start,
            dur_us: dur,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(1, None, "job", 0.0, 100.0),
            span(2, Some(1), "bdd", 10.0, 20.0),
            span(3, Some(1), "label", 30.0, 50.0),
            // Overlaps its sibling and runs past the parent: only the
            // uncovered part inside the parent counts once.
            span(4, Some(1), "map", 70.0, 40.0),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs, vec![10.0, 20.0, 50.0, 40.0]);
        assert!((min_child_cover(&spans, "job") - 0.9).abs() < 1e-12);
    }

    #[test]
    fn totals_sum_durations_and_fields() {
        let mut a = span(1, None, "label", 0.0, 1500.0);
        a.fields = vec![
            ("nodes", Json::Num(7.0)),
            ("cached", Json::Bool(true)),
            ("rung", Json::str("exact-mip")),
        ];
        let mut b = span(2, None, "label", 0.0, 500.0);
        b.fields = vec![("nodes", Json::Num(3.0)), ("rung", Json::str("exact-mip"))];
        let t = Totals::of(&[a, b]);
        assert_eq!(t.count("label"), 2);
        assert_eq!(t.ms("label"), 2.0);
        assert_eq!(t.field("label", "nodes"), 10.0);
        assert_eq!(t.field("label", "cached"), 1.0);
        assert_eq!(t.field("label", "rung.exact-mip"), 2.0);
        assert_eq!(t.field("label", "absent"), 0.0);
    }
}
