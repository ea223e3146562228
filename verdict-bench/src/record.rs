//! Run records: one JSON line per run in `.bench_out/records.jsonl`
//! under the working directory. Each new run is compared with the
//! earlier records of the same build: the benchmark prints every
//! metric's quartiles across them and flags any work count that
//! drifted between runs that should have done identical work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::stats;

/// Output directory, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Telemetry counters whose deltas are recorded: deterministic work
/// counts of the layers, never times.
const COUNTED: &[&str] = &[
    "frost.core.plan.",
    "frost.core.bitslice.",
    "frost.core.cache.",
    "frost.core.mem.",
    "frost.fuzz.gen.pruned.",
    "frost.backend.sim.",
    "frost.opt.pass.",
];

/// The recorded subset of a counter delta.
pub fn work_counts(delta: &frost_telemetry::Snapshot) -> BTreeMap<String, u64> {
    delta
        .counters
        .iter()
        .filter(|(k, _)| COUNTED.iter().any(|p| k.starts_with(p)) && !k.ends_with(".ns"))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// One run's record.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Which seeds must reproduce the same counts: the seed itself for
    /// seeded samples, empty for workloads that ignore the seed.
    pub count_key: String,
    pub summary: String,
    pub counts: BTreeMap<String, u64>,
    pub kernel_ns: f64,
    pub metrics: Vec<(String, f64)>,
}

/// A hash of the running executable: records of one build compare.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn counts_text(counts: &BTreeMap<String, u64>) -> String {
    let parts: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(",")
}

/// The value of `"key":"..."` in a record line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let len = line[at..].find('"')?;
    Some(&line[at..at + len])
}

/// The value of `"key":<number>` in a record line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let end = line[at..].find([',', '}']).map_or(line.len(), |e| at + e);
    line[at..end].parse().ok()
}

impl Record {
    fn to_line(&self, build: &str, drift: bool) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"build\":\"{build}\",\
             \"count_key\":\"{}\",\"nproc\":{},\"cpu\":\"{}\",\"kernel_ns\":{},\
             \"summary\":\"{}\",\"counts\":\"{}\",\"drift\":{drift}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.count_key,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model(),
            self.kernel_ns,
            self.summary,
            counts_text(&self.counts),
        );
        for (k, v) in &self.metrics {
            let _ = write!(s, ",\"m.{k}\":{v}");
        }
        s.push('}');
        s
    }

    /// Appends this record and prints, to stderr, the quartiles of
    /// every metric across this build's records of the same workload
    /// and mode, and any count drift.
    pub fn store(&self) {
        let build = build_id();
        let dir = Path::new(OUT_DIR);
        let path = dir.join("records.jsonl");
        let earlier: Vec<String> = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter(|l| {
                field_str(l, "build") == Some(build.as_str())
                    && field_str(l, "workload") == Some(self.workload.as_str())
                    && field_num(l, "trace") == Some(f64::from(u8::from(self.trace)))
            })
            .map(str::to_string)
            .collect();
        let counts = counts_text(&self.counts);
        let mut drift = false;
        for l in &earlier {
            if field_str(l, "count_key") != Some(self.count_key.as_str()) {
                continue;
            }
            if field_str(l, "counts") != Some(counts.as_str())
                || field_str(l, "summary") != Some(self.summary.as_str())
            {
                drift = true;
            }
        }
        if drift {
            eprintln!(
                "DRIFT: {} counts or summary differ from an earlier run of this build",
                self.workload
            );
        }
        let line = self.to_line(&build, drift);
        let _ = std::fs::create_dir_all(dir);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("cannot append {}: {e}", path.display());
        }
        let mut all = earlier;
        all.push(line);
        eprintln!(
            "quartiles across {} run(s) of this build ({}, trace={}):",
            all.len(),
            self.workload,
            u8::from(self.trace)
        );
        let kernels: Vec<f64> = all
            .iter()
            .filter_map(|l| field_num(l, "kernel_ns"))
            .collect();
        let [q1, q2, q3] = stats::quartiles(&kernels);
        eprintln!(
            "  {:<40} {q1:>14.6} {q2:>14.6} {q3:>14.6}",
            "kernel_ns (raw)"
        );
        for (k, _) in &self.metrics {
            let vals: Vec<f64> = all
                .iter()
                .filter_map(|l| field_num(l, &format!("m.{k}")))
                .collect();
            let [q1, q2, q3] = stats::quartiles(&vals);
            eprintln!("  {k:<40} {q1:>14.6} {q2:>14.6} {q3:>14.6}");
        }
    }
}
