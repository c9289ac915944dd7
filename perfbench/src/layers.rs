//! Per-layer metrics of the traced run.
//!
//! Every workload reports every metric. A metric comes from the
//! workload's measured phase when that phase calls the layer, and from
//! the set-up otherwise: set-up runs a small retrain, starts the daemon
//! and sends a readiness probe, so it calls every layer once. The report
//! tags each value with where it came from.

use crate::stats::{self, Ratio};
use crate::trace::Span;
use std::collections::BTreeMap;

/// Root span names of the two parts of a run.
pub const SETUP_ROOT: &str = "bench.setup";
pub const RUN_ROOT: &str = "bench.run";

/// `(name, unit, better)` of every per-layer metric, in report order.
/// `better` is `None` for counts that check a run rather than measure a
/// layer: they are printed, not put in the JSON line.
pub const LAYER_METRICS: &[(&str, &str, Option<&str>)] = &[
    ("corpus.label_pass_s", "s", Some("lower")),
    ("corpus.materialize_ms", "ms", Some("lower")),
    ("cvedb.select_ms", "ms", Some("lower")),
    ("cvedb.selected_apps", "count", None),
    ("minilang.parse_us", "us", Some("lower")),
    ("testbed.extract_ms", "ms", Some("lower")),
    ("testbed.context_ms", "ms", Some("lower")),
    ("testbed.collectors_ms", "ms", Some("lower")),
    ("testbed.bugfind_ms", "ms", Some("lower")),
    ("testbed.attackgraph_ms", "ms", Some("lower")),
    ("incremental.extract_ms", "ms", Some("lower")),
    ("incremental.hit_frac", "ratio", Some("higher")),
    ("incremental.rebuilt_fns_per_req", "ratio", Some("lower")),
    ("train.fit_s", "s", Some("lower")),
    ("train.compile_ms", "ms", Some("lower")),
    ("train.spill_mb", "MB", Some("lower")),
    ("score.prepare_ms", "ms", Some("lower")),
    ("score.battery_ms", "ms", Some("lower")),
    ("score.rows_per_s", "1/s", Some("higher")),
    ("explain.rows_per_s", "1/s", Some("higher")),
    ("explain.hotspots_ms", "ms", Some("lower")),
    ("serve.batch_rows_mean", "rows", Some("higher")),
    ("serve.reactor_wakeups_per_req", "ratio", Some("lower")),
    ("serve.rejected_busy", "count", None),
    ("serve.server_p50_us", "us", Some("lower")),
    ("serve.server_p99_us", "us", Some("lower")),
    ("serve.request_parse_us", "us", Some("lower")),
    ("serve.render_us", "us", Some("lower")),
    ("loadgen.lag_p99_ms", "ms", Some("lower")),
    ("loadgen.sent", "count", None),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Setup,
    Run,
}

impl Source {
    fn root(self) -> &'static str {
        match self {
            Source::Setup => SETUP_ROOT,
            Source::Run => RUN_ROOT,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    source: Source,
    base: Option<Ratio>,
}

/// The per-layer metric values collected so far.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, Entry>,
}

impl Layers {
    /// Record a value. A measured-phase value replaces a set-up one,
    /// never the other way round.
    pub fn set(&mut self, name: &str, value: f64, source: Source) {
        self.put(name, value, source, None);
    }

    /// Record a ratio with its base; an empty base records nothing.
    pub fn set_ratio(&mut self, name: &str, num: f64, den: f64, source: Source) {
        if den > 0.0 {
            let ratio = Ratio::new(num, den);
            self.put(name, ratio.value(), source, Some(ratio));
        }
    }

    fn put(&mut self, name: &str, value: f64, source: Source, base: Option<Ratio>) {
        let (key, _, _) = LAYER_METRICS
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        if let Some(old) = self.values.get(key) {
            if old.source == Source::Run && source == Source::Setup {
                return;
            }
        }
        self.values.insert(
            key,
            Entry {
                value,
                source,
                base,
            },
        );
    }

    /// Report lines, one per metric, with source and base.
    pub fn lines(&self) -> Vec<String> {
        LAYER_METRICS
            .iter()
            .map(|(name, unit, _)| match self.values.get(name) {
                Some(e) => {
                    let source = match e.source {
                        Source::Setup => "set-up",
                        Source::Run => "run",
                    };
                    let base = e.base.map_or(String::new(), |r| format!(" = {r}"));
                    format!("layer {name} {} {unit} [{source}]{base}", e.value)
                }
                None => format!("layer {name} unavailable: no call into this layer was traced"),
            })
            .collect()
    }

    /// The metrics read straight off spans — per-call medians and row
    /// rates — for the calls `source`'s part of the run traced. Layers it
    /// did not call keep their values.
    pub fn add_span_metrics(&mut self, spans: &[Span], source: Source) {
        let under = under(spans, source);
        let calls = |name: &str| -> Vec<&Span> {
            under.iter().copied().filter(|s| s.name == name).collect()
        };
        for (metric, span, scale) in [
            ("minilang.parse_us", "minilang.parse", 1e3),
            ("incremental.extract_ms", "incremental.extract", 1.0),
            ("explain.hotspots_ms", "explain.hotspots", 1.0),
            ("serve.request_parse_us", "serve.request_parse", 1e3),
            ("serve.render_us", "serve.render", 1e3),
            ("score.prepare_ms", "score.prepare", 1.0),
            ("score.battery_ms", "score.battery", 1.0),
        ] {
            let ms: Vec<f64> = calls(span)
                .iter()
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect();
            if !ms.is_empty() {
                self.set(metric, stats::median(&ms) * scale, source);
            }
        }
        // Batch spans carry their row count as the id.
        for (metric, timed) in [
            ("score.rows_per_s", &["score.prepare", "score.battery"][..]),
            ("explain.rows_per_s", &["explain.batch"][..]),
        ] {
            let rows: u64 = calls(timed[0]).iter().map(|s| s.id).sum();
            let secs: f64 = timed
                .iter()
                .flat_map(|name| calls(name))
                .map(|s| s.dur_ns() as f64 / 1e9)
                .sum();
            if secs > 0.0 {
                self.set_ratio(metric, rows as f64, secs, source);
            }
        }
    }

    /// `"name": {"value": v, "unit": u}` pairs for every metric that
    /// measures a layer.
    pub fn json_pairs(&self) -> Vec<String> {
        LAYER_METRICS
            .iter()
            .filter(|(_, _, better)| better.is_some())
            .map(|(name, unit, _)| {
                let v = self.values.get(name).map_or(0.0, |e| e.value);
                crate::metric_json(name, v, unit)
            })
            .collect()
    }
}

/// For each span, whether its root ancestor belongs to `source`.
pub fn part(spans: &[Span], source: Source) -> Vec<bool> {
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let root = s.parent.map_or(i, |p| root_of[p]);
        root_of.push(root);
    }
    root_of
        .iter()
        .map(|&r| spans[r].name == source.root())
        .collect()
}

/// Spans whose root ancestor belongs to `source`.
pub fn under(spans: &[Span], source: Source) -> Vec<&Span> {
    spans
        .iter()
        .zip(part(spans, source))
        .filter(|(_, keep)| *keep)
        .map(|(s, _)| s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_values_replace_setup_values_but_not_back() {
        let mut layers = Layers::default();
        layers.set("train.fit_s", 1.0, Source::Setup);
        layers.set("train.fit_s", 2.0, Source::Run);
        layers.set("train.fit_s", 3.0, Source::Setup);
        assert_eq!(layers.values["train.fit_s"].value, 2.0);
        layers.set_ratio("incremental.hit_frac", 1.0, 0.0, Source::Run);
        assert!(!layers.values.contains_key("incremental.hit_frac"));
        layers.set_ratio("incremental.hit_frac", 1.0, 4.0, Source::Run);
        assert_eq!(layers.values["incremental.hit_frac"].value, 0.25);
        assert_eq!(layers.json_pairs().len(), LAYER_METRICS.len() - 3);
    }

    #[test]
    fn spans_are_split_by_root() {
        let span = |name, parent| Span {
            name,
            id: 0,
            parent,
            start_ns: 0,
            end_ns: 1,
        };
        let spans = vec![
            span(SETUP_ROOT, None),
            span("a.x", Some(0)),
            span(RUN_ROOT, None),
            span("b.y", Some(2)),
            span("c.z", Some(3)),
        ];
        let names = |s: Source| -> Vec<&str> { under(&spans, s).iter().map(|s| s.name).collect() };
        assert_eq!(names(Source::Setup), vec![SETUP_ROOT, "a.x"]);
        assert_eq!(names(Source::Run), vec![RUN_ROOT, "b.y", "c.z"]);
    }
}
