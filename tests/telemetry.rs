//! Cross-crate telemetry guarantees (docs/OBSERVABILITY.md):
//!
//! 1. the always-on counters are *deterministic under parallelism* —
//!    a campaign reports identical verdict totals whether it ran on 1,
//!    2, or 8 workers (cache hit/miss counters and the plan-engine
//!    tallies are explicitly excluded: they ride on the outcome-cache
//!    miss path, whose transient probes depend on interleaving);
//! 2. traced spans are *well-formed* — per-thread stack discipline,
//!    every stop matches a start, and the rendered JSONL artifact
//!    validates with zero unmatched events.
//!
//! Telemetry state (the counter registry, the trace collector) is
//! process-global, so these tests serialize on one mutex. Other test
//! binaries run as separate processes and cannot interfere.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Mutex;

use frost::prelude::*;
use frost::telemetry;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Locks even when a previous test panicked (the registry itself is
/// fine; poisoning only marks that a holder died).
fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn run_campaign(workers: usize) -> ValidationReport {
    Campaign::new(Semantics::proposed())
        .with_workers(workers)
        .run_random(&GenConfig::arithmetic(2), 97, 160, |m| {
            o2_pipeline(PipelineMode::Fixed).run(m);
        })
}

/// The counter names the determinism contract covers: everything frost
/// registers except the racy cache tallies and the run/shard shape
/// counters that legitimately vary with the worker count.
fn deterministic_counters(snap: &telemetry::Snapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| {
            // `frost.core.plan.*` follows the cache counters out: plan
            // compiles/runs happen on the outcome-cache miss path, and
            // the plan cache is not single-flight, so two outcome keys
            // sharing one plan key can both compile it.
            k.starts_with("frost.")
                && !k.starts_with("frost.core.cache.")
                && !k.starts_with("frost.core.plan.")
                && !k.ends_with(".shards")
        })
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

#[test]
fn counter_totals_are_worker_count_invariant() {
    let _guard = telemetry_lock();
    let mut per_workers: Vec<(usize, BTreeMap<String, u64>)> = Vec::new();
    for workers in [1, 2, 8] {
        let before = telemetry::snapshot();
        let report = run_campaign(workers);
        // The campaign may clamp the requested count to the machine's
        // parallelism; determinism must hold at whatever it used.
        assert!(report.stats.workers >= 1);
        let delta = telemetry::snapshot().delta(&before);
        let counters = deterministic_counters(&delta);
        assert_eq!(
            counters.get("frost.fuzz.campaign.checked"),
            Some(&(report.total as u64)),
            "global counter must mirror the report"
        );
        assert!(
            counters.get("frost.refine.checks").copied().unwrap_or(0) >= report.total as u64,
            "every campaign check goes through the refinement checker"
        );
        per_workers.push((workers, counters));
    }
    let (_, baseline) = &per_workers[0];
    for (workers, counters) in &per_workers[1..] {
        assert_eq!(
            counters, baseline,
            "counter totals with {workers} workers diverge from the 1-worker run"
        );
    }
}

#[test]
fn spans_nest_and_the_artifact_validates() {
    let _guard = telemetry_lock();
    telemetry::enable(telemetry::TraceFormat::Jsonl);
    telemetry::drain();
    let report = run_campaign(2);
    telemetry::disable();
    let events = telemetry::drain();
    assert!(report.is_clean(), "{report}");
    assert!(!events.is_empty(), "a traced campaign must record spans");

    // Per-thread stack discipline: every stop closes the innermost
    // open span of its thread.
    let mut stacks: HashMap<u64, Vec<u64>> = HashMap::new();
    for ev in &events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            telemetry::TraceEventKind::Start => stack.push(ev.span),
            telemetry::TraceEventKind::Stop => {
                assert_eq!(
                    stack.pop(),
                    Some(ev.span),
                    "span {} on thread {} stopped out of order",
                    ev.span,
                    ev.tid
                );
            }
            telemetry::TraceEventKind::Point => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "thread {tid} left spans open: {stack:?}");
    }

    // The rendered artifact round-trips through the validator with
    // nothing unmatched, and the campaign spans are present.
    let stats = telemetry::validate_jsonl(&telemetry::render_jsonl(&events)).expect("valid JSONL");
    assert_eq!(stats.unmatched, 0);
    assert_eq!(stats.starts, stats.stops);
    assert!(stats.by_key.contains_key("fuzz.campaign.run"));
    assert!(stats.by_key.contains_key("fuzz.campaign.shard"));
    assert!(stats.by_key.contains_key("refine.check.run"));
    assert!(
        stats.by_key.keys().any(|k| k.starts_with("opt.pass.run[")),
        "per-pass keys expected, got {:?}",
        stats.by_key.keys().collect::<Vec<_>>()
    );
}

#[test]
fn disabled_tracing_records_nothing() {
    let _guard = telemetry_lock();
    telemetry::disable();
    telemetry::drain();
    let report = run_campaign(2);
    assert!(report.is_clean(), "{report}");
    assert!(
        telemetry::drain().is_empty(),
        "spans must be inert while tracing is off"
    );
}

/// Every source goes through the one campaign driver, so an exhaustive
/// sweep reports the same span shape as a sampled campaign: one
/// `fuzz.campaign.run` with a `fuzz.campaign.shard` per chunk.
#[test]
fn exhaustive_sweep_emits_run_and_shard_spans() {
    let _guard = telemetry_lock();
    telemetry::enable(telemetry::TraceFormat::Jsonl);
    telemetry::drain();
    let (report, cp) = Campaign::new(Semantics::proposed())
        .with_workers(2)
        .with_shard_size(100)
        .run_exhaustive(&GenConfig::arithmetic(1), None, |_m| {});
    telemetry::disable();
    let events = telemetry::drain();
    assert!(report.is_clean() && cp.done, "{report}");
    let stats = telemetry::validate_jsonl(&telemetry::render_jsonl(&events)).expect("valid JSONL");
    assert_eq!(stats.unmatched, 0);
    assert_eq!(stats.by_key["fuzz.campaign.run"].count, 1);
    assert_eq!(
        stats.by_key["fuzz.campaign.shard"].count,
        report.total.div_ceil(100) as u64,
        "one shard span per chunk"
    );
}
