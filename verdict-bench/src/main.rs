//! `verdict-bench`: the frost benchmark. See README.md in this
//! directory for the workloads, the metrics and the layer map.
//!
//! ```text
//! verdict-bench --workload <arith2|guard3|mem3|pipeline> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the human-readable
//! report goes to standard error.

mod calib;
mod expected;
mod meter;
mod pipeline;
mod record;
mod stats;
mod sweep;
mod trace;

use std::process::{Command, ExitCode};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use meter::Meter;
use pipeline::Pipeline;
use sweep::{Domain, Sweep};
use trace::{Layer, Tracer};

const USAGE: &str = "usage: verdict-bench --workload <arith2|guard3|mem3|pipeline> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Probe processes per run: each measures a cold set-up and a share of
/// the compile-only passes. The measuring process's own set-up is one
/// more set-up sample.
const PROBES: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sweep(Domain),
    Pipeline,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "arith2" => Workload::Sweep(Domain::Arith2),
            "guard3" => Workload::Sweep(Domain::Guard3),
            "mem3" => Workload::Sweep(Domain::Mem3),
            "pipeline" => Workload::Pipeline,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep(Domain::Arith2) => "arith2",
            Workload::Sweep(Domain::Guard3) => "guard3",
            Workload::Sweep(Domain::Mem3) => "mem3",
            Workload::Pipeline => "pipeline",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run as a probe with this many seconds of compile-only passes;
    /// see [`probe`].
    probe: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut probe = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds '{value}'"));
                }
                seconds = Some(s);
            }
            "--probe" => {
                probe = Some(value.parse().map_err(|_| format!("bad probe '{value}'"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        probe,
    })
}

/// A workload after set-up.
enum Prepared {
    Sweep(Sweep),
    Pipeline(Pipeline),
}

fn setup(w: Workload, seed: u64) -> Prepared {
    match w {
        Workload::Sweep(d) => Prepared::Sweep(Sweep::setup(d, seed)),
        Workload::Pipeline => Prepared::Pipeline(Pipeline::setup(seed)),
    }
}

/// Sets up, timed from `start`, and returns the workload with its
/// calibrated set-up time in seconds.
fn timed_setup(args: &Args, start: Instant) -> (Prepared, f64) {
    let prepared = setup(args.workload, args.seed);
    let raw = start.elapsed().as_nanos() as f64;
    std::hint::black_box(calib::kernel());
    let k = calib::time_kernel();
    (prepared, calib::duration(raw, k) / 1e9)
}

/// The fresh probe processes of one run, each with a share of the
/// compile-only passes, and what they measured. A process's hash seeds
/// and heap layout shift a small pass's time for the whole process, so
/// compile latency takes several; they run between the verdict passes,
/// so that both sample the host over the whole run.
struct Probes {
    exe: std::path::PathBuf,
    share: String,
    setups: Vec<f64>,
    /// Per compile unit, one latency per probe.
    units: Vec<Vec<f64>>,
}

impl Probes {
    fn new(compile_secs: f64) -> Result<Probes, String> {
        Ok(Probes {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            share: (compile_secs / PROBES as f64).to_string(),
            setups: Vec::new(),
            units: Vec::new(),
        })
    }

    fn done(&self) -> usize {
        self.setups.len()
    }

    /// Runs one probe to completion.
    fn run(&mut self, args: &Args) -> Result<(), String> {
        let o = Command::new(&self.exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--probe", &self.share])
            .output()
            .map_err(|e| format!("probe: {e}"))?;
        let text = String::from_utf8_lossy(&o.stdout);
        let bad = || format!("probe printed '{}'", text.trim());
        if !o.status.success() {
            return Err(bad());
        }
        let mut lines = text.lines();
        let setup: f64 = lines.next().and_then(|l| l.parse().ok()).ok_or_else(bad)?;
        let latencies: Vec<f64> = lines
            .next()
            .unwrap_or("")
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| bad())?;
        if self.units.is_empty() {
            self.units.resize(latencies.len(), Vec::new());
        }
        if latencies.len() != self.units.len() {
            return Err(bad());
        }
        for (u, v) in self.units.iter_mut().zip(latencies) {
            u.push(v);
        }
        self.setups.push(setup);
        Ok(())
    }

    /// Each compile unit's median latency over the probes, in ms.
    fn compile_ms(&self) -> Vec<f64> {
        self.units.iter().map(|u| stats::median(u)).collect()
    }
}

/// A probe process: times its own cold set-up from `start`, then runs
/// compile-only passes for `compile_secs`; prints the calibrated set-up
/// seconds on one line and each compile unit's latency in ms on the
/// next.
fn probe(args: &Args, start: Instant, compile_secs: f64) {
    let (prepared, setup_s) = timed_setup(args, start);
    let latencies = compile_phase(&prepared, compile_secs);
    let units: Vec<String> = latencies.iter().map(f64::to_string).collect();
    println!("{setup_s}\n{}", units.join(" "));
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Known-answer and determinism checks that do not count verdicts.
    problems: Vec<String>,
    summary: String,
    counts: std::collections::BTreeMap<String, u64>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    kernel_ns: f64,
}

/// Share of an untraced run's time spent on verdict passes; the
/// probes' compile-only passes take the rest.
const VERDICT_SHARE: f64 = 0.8;

/// Keeps passing while another pass is expected to end within half a
/// pass of `seconds`, `elapsed` seconds into `passes` passes.
fn another_pass(elapsed: f64, passes: usize, seconds: f64) -> bool {
    elapsed + elapsed / passes as f64 * 0.5 < seconds
}

/// Counter deltas of `f`, with `f`'s result.
fn metered<R>(f: impl FnOnce() -> R) -> (R, std::collections::BTreeMap<String, u64>) {
    let before = frost_telemetry::snapshot();
    let r = f();
    let delta = frost_telemetry::snapshot().delta(&before);
    (r, record::work_counts(&delta))
}

/// Compile-only passes for about `seconds`; returns each unit's
/// calibrated latency in ms.
fn compile_phase(prepared: &Prepared, seconds: f64) -> Vec<f64> {
    let started = Instant::now();
    let mut cm = Meter::new();
    let sample = match prepared {
        Prepared::Sweep(s) => s.compile_sample(),
        Prepared::Pipeline(_) => Vec::new(),
    };
    let mut passes = 0;
    loop {
        match prepared {
            Prepared::Sweep(s) => s.compile_pass(&sample, &mut cm),
            Prepared::Pipeline(p) => p.compile_pass(&mut cm),
        }
        passes += 1;
        if !another_pass(started.elapsed().as_secs_f64(), passes, seconds) {
            break;
        }
    }
    cm.unit_latencies_ms()
}

/// The end-to-end run: tracing off, set-up timed, passes timed by
/// calibrated segments.
fn untraced(args: &Args, start: Instant) -> Result<Outcome, String> {
    let (prepared, own_setup) = timed_setup(args, start);
    if let Prepared::Sweep(s) = &prepared {
        eprintln!(
            "{}: space sized at {} before metering",
            args.workload.name(),
            s.space
        );
    }
    let mut probes = Probes::new(args.seconds * (1.0 - VERDICT_SHARE))?;
    let verdict_budget = args.seconds * VERDICT_SHARE;
    let mut verdict_secs = 0.0;
    let meter = Arc::new(Mutex::new(Meter::new()));
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss = 0.0;
    let mut first: Option<(String, std::collections::BTreeMap<String, u64>)> = None;
    let mut out_insts = 0u64;
    let started = Instant::now();
    let mut passes = 0;
    loop {
        let pass_started = Instant::now();
        let ((summary, insts), counts) = match &prepared {
            Prepared::Sweep(s) => metered(|| {
                let (summary, insts) = s.pass(&meter);
                attempted += summary.checked as u64;
                failed += (summary.violations + summary.inconclusive) as u64;
                if !expected::sweep_ok(s.domain, &summary) {
                    problems.push(format!("summary '{summary}' is not the known answer"));
                }
                (summary.to_string(), insts)
            }),
            Prepared::Pipeline(p) => metered(|| {
                let mut m = meter.lock().expect("meter lock");
                let t = p.pass(Some(&mut m), None);
                attempted += t.programs as u64;
                failed += t.wrong as u64;
                (pipeline_summary(&t), t.mir_insts)
            }),
        };
        verdict_secs += pass_started.elapsed().as_secs_f64();
        passes += 1;
        while probes.done() < PROBES
            && (probes.done() as f64) < PROBES as f64 * verdict_secs / verdict_budget
        {
            probes.run(args)?;
        }
        match &first {
            None => {
                first = Some((summary, counts));
                out_insts = insts;
                // After one pass: later passes only add allocator
                // fragmentation, and their number depends on speed.
                peak_rss = peak_rss_mb();
            }
            Some((s0, c0)) => {
                if *s0 != summary || *c0 != counts || insts != out_insts {
                    problems.push(format!("pass {passes} did different work than pass 1"));
                }
            }
        }
        if !another_pass(verdict_secs, passes, verdict_budget) {
            break;
        }
    }
    while probes.done() < PROBES {
        probes.run(args)?;
    }
    let mut setups = probes.setups.clone();
    setups.push(own_setup);
    let setup_s = stats::median(&setups);
    let compile_ms = probes.compile_ms();
    if let Prepared::Pipeline(p) = &prepared {
        for name in p.cross_check() {
            failed += 1;
            problems.push(format!("{name} disagrees with the committed result"));
        }
    }
    let m = meter.lock().expect("meter lock");
    let (summary, counts) = first.expect("at least one pass");
    let metrics = vec![
        ("verdicts_per_s", m.rate(), "1/s"),
        ("compile_ms_p50", stats::percentile(&compile_ms, 0.5), "ms"),
        ("compile_ms_p90", stats::percentile(&compile_ms, 0.9), "ms"),
        ("out_insts", out_insts as f64, "count"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];
    eprintln!(
        "{}: {passes} verdict pass(es) in {verdict_secs:.1} s, {} segments; {PROBES} probes, \
         {} compile units, {:.1} s in all; set-up samples {:?}",
        args.workload.name(),
        m.kernels.len() - 1,
        compile_ms.len(),
        started.elapsed().as_secs_f64(),
        setups
    );
    Ok(Outcome {
        attempted,
        failed,
        problems,
        summary,
        counts,
        metrics,
        kernel_ns: stats::median(&m.kernels),
    })
}

fn pipeline_summary(t: &pipeline::PassTotals) -> String {
    format!(
        "programs={} wrong={} sim_cycles={} sim_insts={} obj_bytes={} mir_insts={} \
         ir_insts_out={} spilled={}",
        t.programs,
        t.wrong,
        t.sim_cycles,
        t.sim_insts,
        t.obj_bytes,
        t.mir_insts,
        t.ir_insts_out,
        t.spilled
    )
}

/// The per-layer run: untraced and traced passes alternate; the spans
/// and counter deltas of the traced passes give the layer metrics.
fn traced(args: &Args) -> Result<Outcome, String> {
    let prepared = setup(args.workload, args.seed);
    let tr = Tracer::new();
    let out_dir = std::path::Path::new(record::OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let cp_path = out_dir.join(format!("checkpoint-{}.jsonl", args.workload.name()));
    let meter = Arc::new(Mutex::new(Meter::new()));
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut untraced_ns, mut traced_ns, mut kernels) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_wall_ns = 0u64;
    let mut verdicts = 0usize;
    let mut counts = std::collections::BTreeMap::new();
    // Every traced pass must do the same work, so the last one's
    // counts stand for each.
    let mut sweep_pass = sweep::TracedPass::default();
    let mut pipe = pipeline::PassTotals::default();
    let mut first_summary: Option<String> = None;
    let started = Instant::now();
    let mut pairs = 0;
    loop {
        // Untraced pass, timed by the meter's calibrated segments.
        {
            let (v0, s0) = {
                let m = meter.lock().expect("meter lock");
                (m.verdicts, m.secs)
            };
            match &prepared {
                Prepared::Sweep(s) => {
                    s.pass(&meter);
                }
                Prepared::Pipeline(p) => {
                    p.pass(Some(&mut meter.lock().expect("meter lock")), None);
                }
            }
            let m = meter.lock().expect("meter lock");
            untraced_ns.push((m.secs - s0) * 1e9 / (m.verdicts - v0).max(1) as f64);
        }
        // Traced pass, calibrated by the kernel on either side.
        let k0 = calib::time_kernel();
        let wall = Instant::now();
        let ((summary, n), c) = metered(|| match &prepared {
            Prepared::Sweep(s) => {
                let st = s.traced_pass(&tr, &cp_path);
                if !st.checkpoint_ok {
                    problems.push("checkpoint did not round-trip".into());
                }
                if !expected::sweep_ok(s.domain, &st.summary) {
                    problems.push(format!("summary '{}' is not the known answer", st.summary));
                }
                failed += (st.summary.violations + st.summary.inconclusive) as u64;
                sweep_pass = st;
                (st.summary.to_string(), st.summary.checked)
            }
            Prepared::Pipeline(p) => {
                let t = p.pass(None, Some(&tr));
                failed += t.wrong as u64;
                pipe = t;
                (pipeline_summary(&t), t.programs)
            }
        });
        let raw = wall.elapsed().as_nanos() as u64;
        let k = (k0 + calib::time_kernel()) / 2.0;
        traced_wall_ns += raw;
        traced_ns.push(calib::duration(raw as f64, k) / n.max(1) as f64);
        kernels.push(k);
        verdicts += n;
        attempted += n as u64;
        match &first_summary {
            None => {
                first_summary = Some(summary);
                counts = c;
            }
            Some(s0) if *s0 != summary || counts != c => {
                problems.push(format!("traced pass {} did different work", pairs + 1));
            }
            Some(_) => {}
        }
        pairs += 1;
        if !another_pass(started.elapsed().as_secs_f64(), pairs, args.seconds) {
            break;
        }
    }
    if let Err(e) = tr.write_jsonl(&out_dir.join(format!("spans-{}.jsonl", args.workload.name()))) {
        eprintln!("cannot write spans: {e}");
    }
    let k = stats::median(&kernels);
    let n = verdicts.max(1) as f64;
    let passes = pairs as f64;
    let cal = |ns: u64| calib::duration(ns as f64, k);
    let t = |l: Layer| tr.totals(l);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let self_ns_per = |l: Layer, den: f64| per(cal(t(l).self_ns), den);
    let self_ms_per_program = |l: Layer| self_ns_per(l, n) / 1e6;
    let wall = traced_wall_ns as f64;
    // Every traced pass does the same work; `counts` is one pass's.
    let counter = |name: &str| counts.get(name).copied().unwrap_or(0) as f64 * passes;
    let s = &sweep_pass;
    let per_pass = s.summary.checked as f64;
    let sim = t(Layer::Sim);
    let metrics = vec![
        ("fuzz.gen.self_ns_per_fn", self_ns_per(Layer::Gen, n), "ns"),
        ("opt.self_ns_per_fn", self_ns_per(Layer::Opt, n), "ns"),
        (
            "opt.changed_frac",
            per(s.summary.changed as f64, per_pass),
            "frac",
        ),
        (
            "ir.fingerprint.self_ns_per_key",
            self_ns_per(Layer::Fingerprint, t(Layer::Fingerprint).calls as f64),
            "ns",
        ),
        (
            "core.plan.compiles_per_verdict",
            per(t(Layer::PlanCompile).calls as f64, n),
            "count",
        ),
        (
            "core.plan.self_ns_per_compile",
            self_ns_per(Layer::PlanCompile, t(Layer::PlanCompile).calls as f64),
            "ns",
        ),
        (
            "core.bitslice.lowerings_per_verdict",
            per(t(Layer::BitsliceLower).calls as f64, n),
            "count",
        ),
        (
            "core.bitslice.self_ns_per_lower",
            self_ns_per(Layer::BitsliceLower, t(Layer::BitsliceLower).calls as f64),
            "ns",
        ),
        (
            "core.bitslice.self_ns_per_eval",
            self_ns_per(Layer::BitsliceEval, t(Layer::BitsliceEval).calls as f64),
            "ns",
        ),
        (
            "core.bitslice.tuples_per_pass",
            per(
                counter("frost.core.bitslice.tuples_per_pass"),
                t(Layer::BitsliceEval).calls as f64,
            ),
            "count",
        ),
        (
            "core.bitslice.reject_frac",
            per(
                t(Layer::PlanEval).calls as f64,
                t(Layer::BitsliceLower).calls as f64,
            ),
            "frac",
        ),
        (
            "core.plan.eval_ns_per_fn",
            self_ns_per(Layer::PlanEval, n),
            "ns",
        ),
        (
            "core.mem.concretizations_per_fn",
            per(counter("frost.core.mem.concretizations"), n),
            "count",
        ),
        (
            "refine.memories_per_fn",
            per(s.memories as f64, per_pass),
            "count",
        ),
        (
            "refine.inputs.self_ns_per_verdict",
            self_ns_per(Layer::Inputs, n),
            "ns",
        ),
        ("core.cache.hits", s.cache_hits as f64, "count"),
        (
            "core.cache.hit_frac",
            per(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
            "frac",
        ),
        (
            "refine.compare.self_ns_per_verdict",
            self_ns_per(Layer::Compare, n),
            "ns",
        ),
        (
            "fuzz.campaign.overhead_frac",
            per(t(Layer::Campaign).self_ns as f64, wall),
            "frac",
        ),
        (
            "fuzz.checkpoint.save_load_ms",
            per(
                cal(t(Layer::CheckpointSave).incl_ns + t(Layer::CheckpointLoad).incl_ns),
                passes,
            ) / 1e6,
            "ms",
        ),
        (
            "cc.parse.self_ms",
            self_ms_per_program(Layer::CcParse),
            "ms",
        ),
        (
            "cc.irgen.self_ms",
            self_ms_per_program(Layer::CcIrgen),
            "ms",
        ),
        ("ir.text.self_ms", self_ms_per_program(Layer::IrText), "ms"),
        ("opt.o2.self_ms", self_ms_per_program(Layer::OptO2), "ms"),
        (
            "backend.isel.self_ms",
            self_ms_per_program(Layer::Isel),
            "ms",
        ),
        (
            "backend.regalloc.self_ms",
            self_ms_per_program(Layer::Regalloc),
            "ms",
        ),
        (
            "backend.encode.self_ms",
            self_ms_per_program(Layer::Encode),
            "ms",
        ),
        ("opt.o2.ir_insts_out", pipe.ir_insts_out as f64, "count"),
        ("backend.regalloc.spilled", pipe.spilled as f64, "count"),
        ("backend.sim.self_ms", self_ms_per_program(Layer::Sim), "ms"),
        (
            "backend.sim.minsts_per_s",
            per(pipe.sim_insts as f64 * passes, cal(sim.self_ns) / 1e9) / 1e6,
            "Minst/s",
        ),
        ("backend.sim.cycles", pipe.sim_cycles as f64, "count"),
        ("backend.encode.obj_bytes", pipe.obj_bytes as f64, "bytes"),
        (
            "pipeline.overhead_frac",
            per(t(Layer::Program).self_ns as f64, wall),
            "frac",
        ),
        (
            "trace.overhead_frac",
            stats::median(&traced_ns) / stats::median(&untraced_ns) - 1.0,
            "frac",
        ),
        (
            "trace.accounted_frac",
            per(tr.self_ns_all() as f64, wall),
            "frac",
        ),
    ];
    eprintln!(
        "{}: {pairs} untraced+traced pair(s) in {:.1} s",
        args.workload.name(),
        started.elapsed().as_secs_f64(),
    );
    Ok(Outcome {
        attempted,
        failed,
        problems,
        summary: first_summary.unwrap_or_default(),
        counts,
        metrics,
        kernel_ns: k,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verdict-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(compile_secs) = args.probe {
        probe(&args, start, compile_secs);
        return ExitCode::SUCCESS;
    }
    let run = if args.trace {
        traced(&args)
    } else {
        untraced(&args, start)
    };
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("verdict-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let domain_seeded = matches!(args.workload, Workload::Sweep(Domain::Guard3));
    let rec = record::Record {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        trace: args.trace,
        count_key: if domain_seeded {
            args.seed.to_string()
        } else {
            String::new()
        },
        summary: out.summary.clone(),
        counts: out.counts.clone(),
        kernel_ns: out.kernel_ns,
        metrics: out
            .metrics
            .iter()
            .map(|(k, v, _)| (k.to_string(), *v))
            .collect(),
    };
    eprintln!("summary: {}", out.summary);
    for (k, v) in &out.counts {
        eprintln!("  count {k} = {v}");
    }
    for p in &out.problems {
        eprintln!("PROBLEM: {p}");
    }
    rec.store();
    let finite = out.metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("PROBLEM: a metric is not a finite number");
    }
    let correct = out.failed == 0 && out.problems.is_empty() && finite;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
