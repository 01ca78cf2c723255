//! Order statistics, process facts and the result record.

use std::fmt::Write as _;
use std::time::Instant;

/// Median (mean of the middle pair for even lengths); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The `q`-quantile of `sorted` by linear interpolation between ranks.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker count of the N-worker passes.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| String::from("unknown"))
}

/// The commit of the working directory, read from `.git` without running
/// git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return String::from("unknown");
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| String::from("unknown"))
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values become null.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("null")
    }
}

/// Where and on what a run happened.
pub fn provenance(workload: &str, seed: u64, inputs: &[(&str, String)]) -> String {
    let mut fields = vec![
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("nproc", nproc().to_string()),
        ("git_rev", json_str(&git_rev())),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        (
            "load_shape",
            json_str(
                "one process; corpus pass = closed batch with nproc BatchEngine workers; \
                 request pass = closed loop, one client",
            ),
        ),
        (
            "io",
            json_str("corpus files are read from the page cache after generation"),
        ),
    ];
    fields.extend(inputs.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items attempted, over every pass.
    pub attempted: u64,
    /// Read failures, malformed inputs, wrong verdicts, parity breaks and
    /// oracle mismatches.
    pub failed: u64,
    /// Each distinct failed check, with how often it failed.
    pub problems: Vec<(String, u64)>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Provenance JSON.
    pub provenance: String,
    /// Human-readable notes printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check worth `count` failures.
    pub fn fail(&mut self, count: u64, what: String) {
        self.failed += count;
        match self.problems.iter_mut().find(|(p, _)| *p == what) {
            Some((_, times)) => *times += 1,
            None => self.problems.push((what, 1)),
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The metric named `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The one-line result record.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[10, 20, 30, 40, 50], 0.5), 30.0);
        assert_eq!(quantile(&[10, 20], 0.5), 15.0);
    }

    #[test]
    fn result_record_is_one_json_line() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.25, "ms");
        let line = o.json();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.fail(1, String::from("wrong verdict"));
        assert!(o.json().starts_with("{\"correct\": false"));
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
