//! Extraction observability: extraction time, per-collector timings,
//! degraded programs, throughput — everything a corpus-scale sweep needs
//! to print.

use std::fmt;
use std::time::Duration;

/// Why one program's extraction degraded (the batch itself never fails).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A collector panicked; the payload message is preserved.
    Panicked(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Panicked(msg) => write!(f, "collector panicked: {msg}"),
        }
    }
}

/// The summary of one batch run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Programs in the batch.
    pub programs: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Programs that degraded, with why (`(program name, error)`).
    pub errors: Vec<(String, PipelineError)>,
    /// Extractor time summed over programs (and so over workers: it can
    /// exceed `wall` when workers overlap).
    pub extract: Duration,
    /// Per-collector wall time within `extract`:
    /// `(collector name, micros)`, summed across programs and workers.
    /// Empty for extractors without a breakdown.
    pub collectors: Vec<(String, u64)>,
    /// End-to-end wall time of the batch.
    pub wall: Duration,
}

impl PipelineReport {
    /// Programs per second of wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.programs as f64 / secs
        } else {
            0.0
        }
    }

    /// Machine-readable single-line JSON for BENCH_* trajectory tracking.
    pub fn to_json(&self) -> String {
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|(name, e)| {
                format!(
                    "{{\"program\":{},\"error\":{}}}",
                    json_str(name),
                    json_str(&e.to_string())
                )
            })
            .collect();
        let collectors: Vec<String> = self
            .collectors
            .iter()
            .map(|(name, micros)| format!("{}:{micros}", json_str(name)))
            .collect();
        format!(
            "{{\"programs\":{},\"jobs\":{},\"wall_ms\":{:.3},\"extract_ms\":{:.3},\
             \"programs_per_sec\":{:.3},\"collectors_us\":{{{}}},\"errors\":[{}]}}",
            self.programs,
            self.jobs,
            self.wall.as_secs_f64() * 1e3,
            self.extract.as_secs_f64() * 1e3,
            self.throughput(),
            collectors.join(","),
            errors.join(",")
        )
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline: {} programs on {} worker(s) in {:.1}ms ({:.1} programs/sec), \
             extract {:.1}ms",
            self.programs,
            self.jobs,
            self.wall.as_secs_f64() * 1e3,
            self.throughput(),
            self.extract.as_secs_f64() * 1e3
        )?;
        if !self.collectors.is_empty() {
            let parts: Vec<String> = self
                .collectors
                .iter()
                .map(|(name, micros)| format!("{name} {:.1}ms", *micros as f64 / 1e3))
                .collect();
            write!(f, "\n  collectors: {}", parts.join(", "))?;
        }
        for (name, e) in &self.errors {
            write!(f, "\n  degraded: {name}: {e}")?;
        }
        Ok(())
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_programs_per_wall_second() {
        let report = PipelineReport {
            programs: 10,
            jobs: 2,
            wall: Duration::from_millis(500),
            ..Default::default()
        };
        assert!((report.throughput() - 20.0).abs() < 1e-9);
        assert_eq!(PipelineReport::default().throughput(), 0.0);
    }

    #[test]
    fn json_is_one_line_and_escaped() {
        let report = PipelineReport {
            programs: 1,
            jobs: 1,
            errors: vec![("we\"ird".into(), PipelineError::Panicked("boom\n".into()))],
            ..Default::default()
        };
        let json = report.to_json();
        assert_eq!(json.lines().count(), 1);
        assert!(json.contains("\\\"ird"));
        assert!(json.contains("\\n"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn collector_breakdown_in_json_and_display() {
        let report = PipelineReport {
            programs: 1,
            jobs: 1,
            collectors: vec![("context".into(), 1500), ("taint".into(), 250)],
            ..Default::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"collectors_us\":{\"context\":1500,\"taint\":250}"));
        let text = report.to_string();
        assert!(text.contains("collectors: context 1.5ms, taint 0.2ms"));
        // No breakdown → no line, and an empty JSON object.
        let bare = PipelineReport::default();
        assert!(bare.to_json().contains("\"collectors_us\":{}"));
        assert!(!bare.to_string().contains("collectors:"));
    }

    #[test]
    fn display_mentions_degraded_programs() {
        let report = PipelineReport {
            programs: 2,
            jobs: 1,
            errors: vec![("app-7".into(), PipelineError::Panicked("x".into()))],
            ..Default::default()
        };
        let text = report.to_string();
        assert!(text.contains("degraded: app-7"));
    }
}
