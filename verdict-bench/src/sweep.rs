//! The three verdict sweeps: `arith2`, `guard3` and `mem3`.
//!
//! The untraced pass is one `Campaign` call on one worker. The traced
//! pass checks the same functions in the same order through the
//! layers' public entry points, mirroring the campaign's outcome cache
//! (targets kept, sources transient on the exhaustive driver, the
//! identity fast path), so it reaches the same verdicts and the same
//! cache hit count.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use frost_core::{
    uninit_fill, BitslicePlan, Engine, ExecError, FastHashMap, Machine, ModulePlan, OutcomeSet,
    Semantics,
};
use frost_fuzz::{
    enumerate_functions, random_functions_range, Campaign, CampaignCheckpoint, GenConfig, Pruning,
};
use frost_ir::{FunctionKey, Module};
use frost_opt::{AssumeSimplify, Dce, GuardDce, Gvn, InstCombine, Pass, PipelineMode};
use frost_refine::{
    enumerate_inputs_cached, enumerate_memories, set_refines, CheckOptions, InputOptions,
};

use crate::meter::Meter;
use crate::trace::{Layer, Tracer};

/// Functions in one `guard3` pass, drawn from the seed.
pub const GUARD3_SAMPLE: usize = 40_000;

/// Functions in the compile-only pass.
const COMPILE_SAMPLE: usize = 4096;

/// Functions per compile-latency unit: a sweep's band runs in about a
/// microsecond, where single timings say more about the timer than
/// about the band.
const COMPILE_UNIT: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Domain {
    Arith2,
    Guard3,
    Mem3,
}

/// The fixed pass band under test for a domain.
pub struct Band {
    domain: Domain,
    ic: InstCombine,
    gvn: Gvn,
    asim: AssumeSimplify,
    gdce: GuardDce,
    dce: Dce,
}

impl Band {
    fn new(domain: Domain) -> Band {
        let mode = PipelineMode::Fixed;
        Band {
            domain,
            ic: InstCombine::new(mode),
            gvn: Gvn::new(mode),
            asim: AssumeSimplify::new(mode),
            gdce: GuardDce::new(mode),
            dce: Dce::new(),
        }
    }

    pub fn run(&self, m: &mut Module) {
        for f in &mut m.functions {
            match self.domain {
                Domain::Arith2 => {
                    self.ic.apply(f);
                }
                Domain::Guard3 => {
                    self.asim.apply(f);
                    self.gdce.apply(f);
                }
                Domain::Mem3 => {
                    self.gvn.apply(f);
                }
            }
            self.dce.apply(f);
            f.compact();
        }
    }
}

/// Verdict tallies of one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    pub checked: usize,
    pub changed: usize,
    pub refined: usize,
    pub violations: usize,
    pub inconclusive: usize,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checked={} changed={} refined={} violations={} inconclusive={}",
            self.checked, self.changed, self.refined, self.violations, self.inconclusive
        )
    }
}

/// A prepared sweep: configuration sized and engines warm.
pub struct Sweep {
    pub domain: Domain,
    cfg: GenConfig,
    opts: CheckOptions,
    seed: u64,
    band: Band,
    /// `approx_size()` of the exhaustive space, or the `guard3` sample
    /// size, taken before any metering window opens.
    pub space: u128,
}

impl Sweep {
    /// Builds the sweep, sizes the space and runs a short warm-up that
    /// fills the input-tuple memo and the bit-slicer's truth tables.
    pub fn setup(domain: Domain, seed: u64) -> Sweep {
        let mut opts = CheckOptions::new(Semantics::proposed()).engine(Engine::Auto);
        let cfg = match domain {
            Domain::Arith2 => GenConfig::arithmetic(2).with_pruning(Pruning::FULL),
            Domain::Guard3 => GenConfig::guards(3),
            Domain::Mem3 => {
                let inputs = opts.inputs.with_memory_values(true);
                opts = opts.with_inputs(inputs);
                GenConfig::memory(3)
            }
        };
        let space = match domain {
            Domain::Guard3 => GUARD3_SAMPLE as u128,
            _ => enumerate_functions(cfg.clone()).approx_size(),
        };
        let sweep = Sweep {
            domain,
            cfg,
            opts,
            seed,
            band: Band::new(domain),
            space,
        };
        let warm = match domain {
            Domain::Arith2 => 4096,
            Domain::Guard3 => 1024,
            Domain::Mem3 => 64,
        };
        let campaign = sweep.campaign().with_budget(warm);
        let band = &sweep.band;
        match domain {
            Domain::Guard3 => {
                campaign.run_random(&sweep.cfg, seed, warm, |m| band.run(m));
            }
            _ => {
                campaign.run_exhaustive(&sweep.cfg, None, |m| band.run(m));
            }
        }
        sweep
    }

    fn campaign(&self) -> Campaign {
        // About 10-25 ms of work per chunk: the observer runs between
        // chunks, so segments close near their target length.
        let chunk = match self.domain {
            Domain::Arith2 => 1024,
            Domain::Guard3 => 256,
            Domain::Mem3 => 16,
        };
        Campaign::with_options(self.opts)
            .with_workers(1)
            .with_shard_size(chunk)
            .with_dedup(false)
    }

    /// One untraced pass through the campaign driver. Returns the
    /// tallies and the instruction count of every optimized function.
    pub fn pass(&self, meter: &Arc<Mutex<Meter>>) -> (Summary, u64) {
        let out_insts = AtomicU64::new(0);
        let observed = Arc::clone(meter);
        let campaign = self.campaign().with_observer(move |p| {
            observed.lock().expect("meter lock").tick(p.checked);
        });
        let transform = |m: &mut Module| {
            self.band.run(m);
            out_insts.fetch_add(m.inst_count() as u64, Ordering::Relaxed);
        };
        meter.lock().expect("meter lock").begin_pass();
        let report = match self.domain {
            Domain::Guard3 => campaign.run_random(&self.cfg, self.seed, GUARD3_SAMPLE, transform),
            _ => campaign.run_exhaustive(&self.cfg, None, transform).0,
        };
        meter.lock().expect("meter lock").close(report.total);
        let summary = Summary {
            checked: report.total,
            changed: report.changed,
            refined: report.refined,
            violations: report.violations.len(),
            inconclusive: report.inconclusive,
        };
        (summary, out_insts.into_inner())
    }

    /// Up to [`COMPILE_SAMPLE`] of a pass's functions, spread evenly
    /// over it, for the compile-only pass.
    pub fn compile_sample(&self) -> Vec<Module> {
        let wrap = |f| {
            let mut m = Module::new();
            m.functions.push(f);
            m
        };
        match self.domain {
            Domain::Guard3 => (0..GUARD3_SAMPLE)
                .step_by((GUARD3_SAMPLE / COMPILE_SAMPLE).max(1))
                .filter_map(|i| random_functions_range(&self.cfg, self.seed, i, 1).pop())
                .map(wrap)
                .collect(),
            _ => {
                let stride = (self.space / COMPILE_SAMPLE as u128).max(1) as u64;
                let mut generator = enumerate_functions(self.cfg.clone());
                let mut out = Vec::new();
                while let Some(f) = generator.next() {
                    out.push(wrap(f));
                    generator.fast_forward(stride - 1);
                }
                out
            }
        }
    }

    /// One compile-only pass: the band runs on a fresh copy of each
    /// function of `sample`, timed, in units of [`COMPILE_UNIT`]
    /// functions. Inside a verdict pass the band runs between
    /// evaluations that evict it from the caches, which makes its time
    /// follow the host's cache contention rather than the band.
    pub fn compile_pass(&self, sample: &[Module], meter: &mut Meter) {
        meter.begin_pass();
        for (i, m) in sample.iter().enumerate() {
            let mut m = m.clone();
            let start = Instant::now();
            self.band.run(&mut m);
            meter.compile_sample(start.elapsed().as_nanos() as u64);
            std::hint::black_box(&m);
            if (i + 1) % COMPILE_UNIT == 0 {
                meter.tick(i + 1);
            }
        }
        meter.close(sample.len());
    }

    /// One traced pass; see the module docs. `cp_path` is where the
    /// pass's checkpoint is saved and loaded back.
    pub fn traced_pass(&self, tr: &Tracer, cp_path: &std::path::Path) -> TracedPass {
        let mut mirror = Mirror {
            opts: self.opts,
            outcomes: FastHashMap::default(),
            plans: FastHashMap::default(),
            stats: TracedPass::default(),
        };
        let mut generator = enumerate_functions(self.cfg.clone());
        let mut summary = Summary::default();
        let count = match self.domain {
            Domain::Guard3 => GUARD3_SAMPLE,
            _ => usize::MAX,
        };
        let transient_src = self.domain != Domain::Guard3;
        let mut index = 0;
        while index < count {
            tr.set_trace(index as u32);
            let more = tr.span(Layer::Campaign, || {
                let f = tr.span(Layer::Gen, || match self.domain {
                    Domain::Guard3 => random_functions_range(&self.cfg, self.seed, index, 1).pop(),
                    _ => generator.next(),
                });
                let Some(f) = f else { return false };
                let name = f.name.clone();
                let mut before = Module::new();
                before.functions.push(f);
                let mut after = before.clone();
                tr.span(Layer::Opt, || self.band.run(&mut after));
                summary.checked += 1;
                if after != before {
                    summary.changed += 1;
                }
                match mirror.check(tr, &before, &after, &name, transient_src) {
                    Verdict::Refines => summary.refined += 1,
                    Verdict::Violation => summary.violations += 1,
                    Verdict::Inconclusive => summary.inconclusive += 1,
                }
                true
            });
            if !more {
                break;
            }
            index += 1;
        }
        let (cursor, counter, done) = generator.cursor();
        let cp = CampaignCheckpoint {
            cursor,
            counter,
            done,
            total: summary.checked,
            changed: summary.changed,
            refined: summary.refined,
            inconclusive: summary.inconclusive,
            ..CampaignCheckpoint::default()
        };
        tr.set_trace(u32::MAX);
        let saved = tr.span(Layer::CheckpointSave, || cp.save_jsonl(cp_path));
        let loaded = tr.span(Layer::CheckpointLoad, || {
            CampaignCheckpoint::load_jsonl(cp_path)
        });
        let roundtrip_ok = saved.is_ok() && loaded.is_ok_and(|back| back == cp);
        let mut stats = mirror.stats;
        // The campaign pays for dropping its caches too.
        tr.span(Layer::Campaign, move || drop(mirror));
        stats.summary = summary;
        stats.checkpoint_ok = roundtrip_ok;
        stats
    }
}

/// What a traced pass counted, beyond its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracedPass {
    pub summary: Summary,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub memories: u64,
    pub checkpoint_ok: bool,
}

enum Verdict {
    Refines,
    Violation,
    Inconclusive,
}

type Outcomes = Arc<Vec<Result<OutcomeSet, ExecError>>>;

/// The benchmark's copy of the campaign's outcome and plan caches.
struct Mirror {
    opts: CheckOptions,
    outcomes: FastHashMap<(FunctionKey, u64), Outcomes>,
    plans: FastHashMap<FunctionKey, Arc<ModulePlan>>,
    stats: TracedPass,
}

impl Mirror {
    fn check(
        &mut self,
        tr: &Tracer,
        src: &Module,
        tgt: &Module,
        name: &str,
        transient_src: bool,
    ) -> Verdict {
        let (sf, tf) = (&src.functions[0], &tgt.functions[0]);
        let opts = self.opts;
        // As the checker does: one input list, and the candidate
        // initial memories enumerated for each side.
        let Some((shared, mems)) = tr.span(Layer::Inputs, || {
            let shared = enumerate_inputs_cached(sf, &opts.inputs)?;
            let src_mems = enumerate_memories(&shared.1, &opts.inputs, uninit_fill(&opts.src_sem))?;
            let tgt_mems = enumerate_memories(&shared.1, &opts.inputs, uninit_fill(&opts.tgt_sem))?;
            Some((
                shared,
                src_mems.into_iter().zip(tgt_mems).collect::<Vec<_>>(),
            ))
        }) else {
            return Verdict::Inconclusive;
        };
        let (tuples, block_sizes) = (&shared.0, &shared.1);
        self.stats.memories += mems.len() as u64;
        let src_key = tr.span(Layer::Fingerprint, || FunctionKey::of(sf));
        let tgt_key = tr.span(Layer::Fingerprint, || FunctionKey::of(tf));
        let same = src_key == tgt_key;
        for (mi, (src_mem, tgt_mem)) in mems.iter().enumerate() {
            let salt = input_salt(&opts.inputs, block_sizes, mi);
            if same {
                let all = self.lookup(
                    tr,
                    &tgt_key,
                    salt,
                    tgt,
                    name,
                    tuples,
                    tgt_mem,
                    !transient_src,
                );
                if all.iter().any(Result::is_err) {
                    return Verdict::Inconclusive;
                }
                continue;
            }
            let src_all = self.lookup(
                tr,
                &src_key,
                salt,
                src,
                name,
                tuples,
                src_mem,
                !transient_src,
            );
            let tgt_all = self.lookup(tr, &tgt_key, salt, tgt, name, tuples, tgt_mem, true);
            let verdict = tr.span(Layer::Compare, || {
                for (s, t) in src_all.iter().zip(tgt_all.iter()) {
                    let Ok(s) = s else {
                        return Some(Verdict::Inconclusive);
                    };
                    if s.may_ub() {
                        continue;
                    }
                    let Ok(t) = t else {
                        return Some(Verdict::Inconclusive);
                    };
                    if !set_refines(t, s) {
                        return Some(Verdict::Violation);
                    }
                }
                None
            });
            if let Some(v) = verdict {
                return v;
            }
        }
        Verdict::Refines
    }

    /// The outcome-cache probe of `OutcomeCache::enumerate_keyed` under
    /// `Engine::Auto`: bit-sliced when the lowering accepts the plan,
    /// the plan machine otherwise.
    #[allow(clippy::too_many_arguments)]
    fn lookup(
        &mut self,
        tr: &Tracer,
        key: &FunctionKey,
        salt: u64,
        module: &Module,
        name: &str,
        tuples: &[Vec<frost_core::Val>],
        mem: &frost_core::Memory,
        store: bool,
    ) -> Outcomes {
        let ck = (key.clone(), salt);
        if let Some(hit) = self.outcomes.get(&ck) {
            self.stats.cache_hits += 1;
            return Arc::clone(hit);
        }
        self.stats.cache_misses += 1;
        let (sem, limits) = (self.opts.src_sem, self.opts.limits);
        let plan = match self.plans.get(key) {
            Some(p) => Arc::clone(p),
            None => {
                let p = Arc::new(tr.span(Layer::PlanCompile, || ModulePlan::compile(module, sem)));
                if store {
                    self.plans.insert(key.clone(), Arc::clone(&p));
                }
                p
            }
        };
        let idx = plan
            .function_index(name)
            .expect("function is in its own plan");
        let lowered = tr.span(Layer::BitsliceLower, || {
            BitslicePlan::compile(&plan, idx, tuples, limits)
        });
        let all: Vec<Result<OutcomeSet, ExecError>> = match lowered {
            Ok(bp) => tr.span(Layer::BitsliceEval, || {
                bp.evaluate(mem).into_iter().map(Ok).collect()
            }),
            Err(_) => {
                tr.span(Layer::PlanEval, || {
                    // A fresh machine per enumeration, as the engine's
                    // plan loop makes.
                    let mut machine = Machine::new();
                    tuples
                        .iter()
                        .map(|args| plan.enumerate(idx, args, mem, limits, &mut machine))
                        .collect()
                })
            }
        };
        let all = Arc::new(all);
        if store {
            self.outcomes.insert(ck, Arc::clone(&all));
        }
        all
    }
}

/// The checker's cache salt for candidate memory `mem_idx`: the input
/// options, the initial-block shape and the memory's index.
fn input_salt(opts: &InputOptions, block_sizes: &[u32], mem_idx: usize) -> u64 {
    let mut h = DefaultHasher::new();
    opts.hash(&mut h);
    block_sizes.hash(&mut h);
    mem_idx.hash(&mut h);
    h.finish()
}
