//! Integration tests for the parallel validation-campaign engine:
//! reproducibility across worker counts, cache correctness against the
//! uncached checker, and budget/observer behavior (DESIGN.md, campaign
//! architecture).

use frost::opt::{Dce, InstCombine};
use frost::prelude::*;

/// A corpus config whose legacy-InstCombine run is known to produce
/// violations: §3.1's `mul x, 2 -> add x, x` fires on undef operands.
fn violating_cfg(num_insts: usize) -> GenConfig {
    GenConfig {
        ops: vec![frost::ir::BinOp::Mul],
        consts: vec![2],
        poison_const: false,
        flags: false,
        freeze: false,
        ..GenConfig::arithmetic(num_insts)
    }
    .with_undef()
}

fn legacy_instcombine(m: &mut Module) {
    for f in &mut m.functions {
        InstCombine::new(PipelineMode::Legacy).apply(f);
        Dce::new().apply(f);
        f.compact();
    }
}

/// Same seed ⇒ byte-identical violation sets, independent of how many
/// workers the campaign runs on (the ISSUE's determinism guarantee).
#[test]
fn same_seed_same_violations_at_1_2_8_workers() {
    let cfg = violating_cfg(2);
    let seed = 0xF005_BA11;
    let run = |workers: usize| {
        Campaign::new(Semantics::legacy_gvn())
            .with_workers(workers)
            .with_shard_size(7)
            .run_random(&cfg, seed, 300, legacy_instcombine)
    };
    let one = run(1);
    assert!(
        !one.is_clean(),
        "the corpus must produce violations for the test to mean anything: {one}"
    );
    for workers in [2, 8] {
        let multi = run(workers);
        assert_eq!(
            one.violations, multi.violations,
            "violation set diverged at {workers} workers"
        );
        assert_eq!(one.total, multi.total);
        assert_eq!(one.changed, multi.changed);
        assert_eq!(one.refined, multi.refined);
        assert_eq!(one.inconclusive, multi.inconclusive);
    }
}

/// The exhaustive corpus is deterministic too — no seed involved, but
/// shard claiming must not reorder or drop verdicts.
#[test]
fn exhaustive_corpus_is_stable_across_worker_counts() {
    let cfg = violating_cfg(1);
    let run = |workers: usize| {
        Campaign::new(Semantics::legacy_gvn())
            .with_workers(workers)
            .with_shard_size(3)
            .run(enumerate_functions(cfg.clone()), legacy_instcombine)
    };
    let one = run(1);
    let eight = run(8);
    assert!(!one.is_clean());
    assert_eq!(one.violations, eight.violations);
    assert_eq!(one.total, eight.total);
}

/// The memoizing checker agrees verdict-for-verdict with the uncached
/// one over a whole corpus, and actually hits its cache while doing so.
#[test]
fn cached_checker_agrees_with_fresh_over_a_corpus() {
    let cache = OutcomeCache::new();
    let opts = CheckOptions::new(Semantics::legacy_gvn());
    let mut compared = 0;
    for f in enumerate_functions(violating_cfg(2)) {
        let name = f.name.clone();
        let mut before = frost::ir::Module::new();
        before.functions.push(f);
        let mut after = before.clone();
        legacy_instcombine(&mut after);

        let fresh = check_refinement(&before, &name, &after, &name, &opts);
        let cached = check_refinement_cached(&before, &name, &after, &name, &opts, &cache);
        assert_eq!(
            format!("{fresh:?}"),
            format!("{cached:?}"),
            "verdicts diverged on:\n{before}"
        );
        compared += 1;
    }
    assert!(
        compared > 20,
        "corpus too small to be meaningful: {compared}"
    );
    assert!(
        cache.hits() > 0,
        "a corpus of near-duplicate functions must hit the cache"
    );
}

fn assert_same_verdicts(a: &ValidationReport, b: &ValidationReport, what: &str) {
    assert_eq!(a.total, b.total, "{what}: total");
    assert_eq!(a.changed, b.changed, "{what}: changed");
    assert_eq!(a.refined, b.refined, "{what}: refined");
    assert_eq!(a.inconclusive, b.inconclusive, "{what}: inconclusive");
    assert_eq!(a.violations, b.violations, "{what}: violations");
}

/// The three sources feed one driver, so a corpus reaches the same
/// verdicts whichever way it arrives: the odometer source equals the
/// same enumeration handed in as an iterator, and the index source
/// (workers generate from indices) equals the materialized random
/// corpus — at 1, 2 and 8 workers.
#[test]
fn every_source_reaches_the_same_verdicts_at_1_2_8_workers() {
    let cfg = violating_cfg(2);
    let (seed, count) = (0x5EED, 300);
    for workers in [1, 2, 8] {
        let campaign = || {
            Campaign::new(Semantics::legacy_gvn())
                .with_workers(workers)
                .with_shard_size(7)
        };
        let listed = campaign().run(enumerate_functions(cfg.clone()), legacy_instcombine);
        let (walked, cp) = campaign().run_exhaustive(&cfg, None, legacy_instcombine);
        assert!(cp.done && !listed.is_clean());
        assert_same_verdicts(&listed, &walked, &format!("exhaustive at {workers}"));

        let listed = campaign().run(
            random_functions(cfg.clone(), seed, count),
            legacy_instcombine,
        );
        let indexed = campaign().run_random(&cfg, seed, count, legacy_instcombine);
        assert!(!listed.is_clean());
        assert_same_verdicts(&listed, &indexed, &format!("random at {workers}"));
    }
}

/// A budget of N checks exactly the first N corpus entries: the report
/// is the prefix of the unbudgeted run.
#[test]
fn budget_checks_exactly_the_corpus_prefix() {
    let cfg = violating_cfg(2);
    let seed = 99;
    let full = Campaign::new(Semantics::legacy_gvn())
        .with_workers(2)
        .run_random(&cfg, seed, 200, legacy_instcombine);
    let budget = 80;
    let capped = Campaign::new(Semantics::legacy_gvn())
        .with_workers(2)
        .with_budget(budget)
        .run_random(&cfg, seed, 200, legacy_instcombine);
    assert_eq!(capped.total, budget);
    assert!(capped.stats.budget_hit);
    assert!(!full.stats.budget_hit);
    let expected: Vec<_> = full
        .violations
        .iter()
        .filter(|v| v.index < budget)
        .cloned()
        .collect();
    assert_eq!(capped.violations, expected);
}

/// A K-process sweep partitions the exhaustive space by residue class;
/// merging the per-shard checkpoints must reproduce the single-process
/// checkpoint **byte-for-byte** — same tallies, same violations, same
/// cursor — at K=2 and K=4.
#[test]
fn sharded_sweep_union_matches_single_process_byte_for_byte() {
    let cfg = violating_cfg(2);
    let opts = CheckOptions::new(Semantics::legacy_gvn());
    let (single, single_cp) =
        Campaign::with_options(opts)
            .with_workers(1)
            .run_exhaustive(&cfg, None, legacy_instcombine);
    assert!(single_cp.done);
    assert!(
        !single.is_clean(),
        "the corpus must produce violations for the merge to be meaningful"
    );
    for k in [2, 4] {
        let parts: Vec<CampaignCheckpoint> = (0..k)
            .map(|i| {
                let (_r, cp) = Campaign::with_options(opts)
                    .with_workers(1)
                    .with_process_shard(i, k)
                    .run_exhaustive(&cfg, None, legacy_instcombine);
                assert!(cp.done, "shard {i}/{k} must finish its residue class");
                assert_eq!((cp.shard_id, cp.shards), (i, k));
                cp
            })
            .collect();
        let merged = CampaignCheckpoint::merge(&parts).expect("complete shard set");
        assert_eq!(
            merged.to_jsonl(),
            single_cp.to_jsonl(),
            "merged artifact diverged from the single-process sweep at K={k}"
        );
    }
}

/// Killing one shard mid-leg, round-tripping its checkpoint through
/// disk, and resuming it must not perturb the merged result.
#[test]
fn killed_shard_resumes_and_merge_still_matches() {
    let cfg = violating_cfg(2);
    let opts = CheckOptions::new(Semantics::legacy_gvn());
    let (_single, single_cp) =
        Campaign::with_options(opts)
            .with_workers(1)
            .run_exhaustive(&cfg, None, legacy_instcombine);

    let (_r0, cp0) = Campaign::with_options(opts)
        .with_workers(2)
        .with_process_shard(0, 2)
        .run_exhaustive(&cfg, None, legacy_instcombine);

    // Shard 1 dies after 37 functions...
    let (r1a, cp1a) = Campaign::with_options(opts)
        .with_workers(1)
        .with_process_shard(1, 2)
        .with_budget(37)
        .run_exhaustive(&cfg, None, legacy_instcombine);
    assert_eq!(r1a.total, 37);
    assert!(!cp1a.done && r1a.stats.budget_hit);

    // ...its checkpoint survives on disk...
    let dir = std::env::temp_dir().join("frost-shard-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard1.jsonl");
    cp1a.save_jsonl(&path).unwrap();
    let restored = CampaignCheckpoint::load_jsonl(&path).unwrap();
    assert_eq!(restored, cp1a);
    std::fs::remove_file(&path).ok();

    // ...and the restarted worker finishes the residue class.
    let (_r1b, cp1) = Campaign::with_options(opts)
        .with_workers(1)
        .with_process_shard(1, 2)
        .run_exhaustive(&cfg, Some(&restored), legacy_instcombine);
    assert!(cp1.done);

    let merged = CampaignCheckpoint::merge(&[cp0, cp1]).expect("complete shard set");
    assert_eq!(
        merged.to_jsonl(),
        single_cp.to_jsonl(),
        "kill/resume of shard 1 perturbed the merged artifact"
    );
}

/// Sharding composes with generation-time pruning: the merged pruned
/// sweep equals the single-process pruned sweep.
#[test]
fn pruned_sharded_sweep_matches_pruned_single_process() {
    let cfg = violating_cfg(2).with_pruning(Pruning::FULL);
    let opts = CheckOptions::new(Semantics::legacy_gvn());
    let (single, single_cp) =
        Campaign::with_options(opts)
            .with_workers(1)
            .run_exhaustive(&cfg, None, legacy_instcombine);
    assert!(single_cp.done && single.total > 0);
    let parts: Vec<CampaignCheckpoint> = (0..2)
        .map(|i| {
            Campaign::with_options(opts)
                .with_workers(1)
                .with_process_shard(i, 2)
                .run_exhaustive(&cfg, None, legacy_instcombine)
                .1
        })
        .collect();
    let merged = CampaignCheckpoint::merge(&parts).expect("complete shard set");
    assert_eq!(merged.to_jsonl(), single_cp.to_jsonl());
}

/// The prelude's sequential entry point and an explicit multi-worker
/// campaign agree on a clean corpus (fixed pipeline finds nothing).
#[test]
fn sequential_wrapper_matches_parallel_campaign_when_clean() {
    let cfg = GenConfig::arithmetic(2);
    let seq = validate_transform(
        random_functions(cfg.clone(), 5, 120),
        Semantics::proposed(),
        |m| {
            o2_pipeline(PipelineMode::Fixed).run(m);
        },
    );
    let par = Campaign::new(Semantics::proposed())
        .with_workers(4)
        .run_random(&cfg, 5, 120, |m| {
            o2_pipeline(PipelineMode::Fixed).run(m);
        });
    assert!(seq.is_clean() && par.is_clean());
    assert_eq!(seq.total, par.total);
    assert_eq!(seq.changed, par.changed);
    assert_eq!(seq.refined, par.refined);
    assert_eq!(seq.violations, par.violations);
}
