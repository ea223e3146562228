//! Parallel validation campaigns: one driver over three corpus
//! sources.
//!
//! The §6 methodology — generate millions of tiny functions, optimize
//! each, check refinement — is embarrassingly parallel: every function
//! is validated independently. [`Campaign`] is the engine that
//! exploits this. Its three entry points differ only in where the
//! functions come from — a caller's iterator ([`Campaign::run`]), the
//! seeded random stream ([`Campaign::run_random`]) or the exhaustive
//! odometer with its resumable cursor ([`Campaign::run_exhaustive`]) —
//! and share one driver: the calling thread pulls fixed-size *chunks*
//! of the corpus, applying the budget, the deadline and process-shard
//! alignment as it goes, and worker threads (scoped) check them. All
//! workers share one [`OutcomeCache`], so each distinct (canonical
//! function, semantics) pair is enumerated once per campaign, no
//! matter which worker sees it first.
//!
//! ## Determinism
//!
//! A campaign's verdicts are a pure function of (corpus, seed, check
//! options): the same campaign produces the *same*
//! [`ValidationReport`] — byte-identical violations in the same order —
//! at any worker count. Two mechanisms guarantee this:
//!
//! * one thread decides which functions are checked, in corpus order,
//!   so budgets and shard alignment never depend on worker timing;
//! * every [`Violation`] carries its global index, and the merge step
//!   sorts by it, erasing chunk-completion order.
//!
//! Only the wall-clock numbers in [`CampaignStats`] (and anything cut
//! off by a [`deadline`](Campaign::with_deadline)) vary between runs.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use frost_core::{Engine, OutcomeCache, Semantics};
use frost_ir::{function_to_string, Function, Module};
use frost_refine::{check_refinement_cached_policy, CheckOptions, CheckPolicy, CheckResult};
use frost_telemetry::{Counter, Histogram};

use crate::checkpoint::CampaignCheckpoint;
use crate::gen::{random_functions_range, ExhaustiveFunctions, GenConfig};
use crate::validate::{ValidationReport, Violation};

/// The engine's process-wide telemetry (see docs/OBSERVABILITY.md):
/// always-on verdict counters under `frost.fuzz.campaign.*`, the
/// per-chunk wait histogram, and the skip-reason tallies. Handles are
/// resolved once per process.
struct CampaignCounters {
    runs: &'static Counter,
    checked: &'static Counter,
    changed: &'static Counter,
    refined: &'static Counter,
    violations: &'static Counter,
    inconclusive: &'static Counter,
    shards: &'static Counter,
    skip_deadline_fns: &'static Counter,
    skip_budget: &'static Counter,
    skip_stride: &'static Counter,
    resumes: &'static Counter,
    claim_ns: &'static Histogram,
}

fn campaign_counters() -> &'static CampaignCounters {
    static COUNTERS: OnceLock<CampaignCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| CampaignCounters {
        runs: frost_telemetry::counter("frost.fuzz.campaign.runs"),
        checked: frost_telemetry::counter("frost.fuzz.campaign.checked"),
        changed: frost_telemetry::counter("frost.fuzz.campaign.changed"),
        refined: frost_telemetry::counter("frost.fuzz.campaign.refined"),
        violations: frost_telemetry::counter("frost.fuzz.campaign.violations"),
        inconclusive: frost_telemetry::counter("frost.fuzz.campaign.inconclusive"),
        shards: frost_telemetry::counter("frost.fuzz.campaign.shards"),
        skip_deadline_fns: frost_telemetry::counter("frost.fuzz.campaign.skip.deadline_fns"),
        skip_budget: frost_telemetry::counter("frost.fuzz.campaign.skip.budget"),
        skip_stride: frost_telemetry::counter("frost.fuzz.campaign.skip.stride"),
        resumes: frost_telemetry::counter("frost.fuzz.campaign.resumes"),
        claim_ns: frost_telemetry::histogram("frost.fuzz.campaign.claim_ns"),
    })
}

/// Wall-clock statistics of a finished campaign, folded into its
/// [`ValidationReport`]. Unlike the verdict counters these are *not*
/// deterministic — they describe one particular run.
#[derive(Clone, Debug, Default)]
pub struct CampaignStats {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the campaign.
    pub wall: Duration,
    /// Functions validated per second of wall-clock time.
    pub functions_per_sec: f64,
    /// Outcome-cache lookups answered from the table.
    pub cache_hits: u64,
    /// Outcome-cache lookups that had to enumerate.
    pub cache_misses: u64,
    /// Distinct (function, semantics) entries the cache ended with.
    pub cache_entries: usize,
    /// `true` if the corpus was truncated by [`Campaign::with_budget`].
    pub budget_hit: bool,
    /// `true` if the [`Campaign::with_deadline`] expired before the
    /// corpus was exhausted.
    pub deadline_hit: bool,
    /// Functions left unchecked when the deadline expired.
    pub skipped: usize,
}

impl CampaignStats {
    /// `hits / (hits + misses)`, or 0 when the cache was off or unused.
    pub fn cache_hit_rate(&self) -> f64 {
        let (h, m) = (self.cache_hits as f64, self.cache_misses as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// The boxed callback installed by [`Campaign::with_observer`].
pub type ProgressObserver = Box<dyn Fn(&Progress) + Send + Sync>;

/// A live snapshot of a running campaign, handed to the observer
/// installed with [`Campaign::with_observer`] after each completed
/// chunk.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Functions validated so far.
    pub checked: usize,
    /// Total functions the campaign will validate (for an exhaustive
    /// sweep, this process's share of the whole space).
    pub total: usize,
    /// Functions the transform changed, so far.
    pub changed: usize,
    /// Refinements verified, so far.
    pub refined: usize,
    /// Violations found, so far.
    pub violations: usize,
    /// Inconclusive checks, so far.
    pub inconclusive: usize,
    /// Wall-clock time since the campaign started.
    pub elapsed: Duration,
    /// Throughput so far, in functions per second.
    pub functions_per_sec: f64,
    /// Outcome-cache hit rate so far.
    pub cache_hit_rate: f64,
}

/// A configured validation campaign: the parallel, cached successor of
/// the sequential `validate_transform` loop.
///
/// ```
/// use frost_core::Semantics;
/// use frost_fuzz::{Campaign, GenConfig};
/// use frost_opt::{o2_pipeline, PipelineMode};
///
/// let pm = o2_pipeline(PipelineMode::Fixed);
/// let report = Campaign::new(Semantics::proposed())
///     .with_workers(2)
///     .run_random(&GenConfig::arithmetic(2), 42, 40, |m| {
///         pm.run(m);
///     });
/// assert!(report.is_clean(), "{report}");
/// assert_eq!(report.total, 40);
/// ```
pub struct Campaign {
    opts: CheckOptions,
    workers: usize,
    shard_size: usize,
    budget: Option<usize>,
    deadline: Option<Duration>,
    observer: Option<ProgressObserver>,
    /// `(shard_id, shards)` — the residue class of the exhaustive walk
    /// this process owns. `(0, 1)` means the whole space.
    process_shard: (usize, usize),
}

impl Campaign {
    /// A campaign checking source and target under `sem`, with
    /// auto-detected worker count, chunks of 64 functions, no budget
    /// and no deadline.
    pub fn new(sem: Semantics) -> Campaign {
        Campaign::with_options(CheckOptions::new(sem))
    }

    /// A campaign with fully explicit check options (differing
    /// source/target semantics, custom limits or input enumeration).
    pub fn with_options(opts: CheckOptions) -> Campaign {
        Campaign {
            opts,
            workers: 0,
            shard_size: 64,
            budget: None,
            deadline: None,
            observer: None,
            process_shard: (0, 1),
        }
    }

    /// Returns this campaign with an explicit execution [`Engine`] for
    /// every refinement check (the default is [`Engine::Auto`], which
    /// bit-slices eligible all-i2 functions and falls back to the plan
    /// machine for everything else).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Campaign {
        self.opts.engine = engine;
        self
    }

    /// Returns this campaign with a fixed worker-thread count. `0`
    /// (the default) auto-detects [`std::thread::available_parallelism`];
    /// `1` runs entirely on the calling thread.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Campaign {
        self.workers = workers;
        self
    }

    /// Returns this campaign with the given chunk size (functions
    /// handed to a worker at a time). Smaller chunks balance better;
    /// larger chunks cost less hand-off. The default is 64.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Campaign {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Returns this campaign with an upper bound on functions checked.
    /// The corpus is truncated as it is pulled, in corpus order, so a
    /// budget never affects which verdicts the surviving prefix
    /// produces.
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Campaign {
        self.budget = Some(budget);
        self
    }

    /// Returns this campaign with a wall-clock deadline. The driver
    /// stops pulling chunks once it expires; [`CampaignStats::skipped`]
    /// counts what was left of a corpus of known size. Deadlines trade
    /// determinism for predictable latency — cut-off campaigns may
    /// differ between runs.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Campaign {
        self.deadline = Some(deadline);
        self
    }

    /// Structural dedup was removed: the odometer never revisits a
    /// shape and residue-class shards are disjoint, so no shipped
    /// domain ever skipped a function. Kept only so that callers
    /// passing `false` still build.
    ///
    /// # Panics
    ///
    /// Panics if `dedup` is `true`.
    #[doc(hidden)]
    #[must_use]
    pub fn with_dedup(self, dedup: bool) -> Campaign {
        assert!(!dedup, "structural dedup was removed from Campaign");
        self
    }

    /// Returns this campaign restricted to one residue class of a
    /// `K`-process exhaustive sweep: [`Campaign::run_exhaustive`]
    /// checks only the functions whose corpus position satisfies
    /// `position % shards == shard_id`, fast-forwarding the generator
    /// through foreign residues (cheap index arithmetic, no function
    /// building). `K` cooperating processes, one per shard id,
    /// partition the space exactly; their checkpoints combine with
    /// [`CampaignCheckpoint::merge`]. Each shard resumes
    /// independently, and over a duplicate-free space budgets compose:
    /// `K` shards × budget `N` check the same functions as one
    /// unsharded budget-`K·N` prefix.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `shard_id` is out of range.
    #[must_use]
    pub fn with_process_shard(mut self, shard_id: usize, shards: usize) -> Campaign {
        assert!(
            shards >= 1 && shard_id < shards,
            "shard {shard_id}/{shards} out of range"
        );
        self.process_shard = (shard_id, shards);
        self
    }

    /// Returns this campaign with a live-progress observer, invoked by
    /// whichever worker finishes a chunk (concurrently — the callback
    /// must be `Sync`).
    #[must_use]
    pub fn with_observer(
        mut self,
        observer: impl Fn(&Progress) + Send + Sync + 'static,
    ) -> Campaign {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Validates `transform` over a caller-supplied corpus. The corpus
    /// is collected up front (up to the budget), so [`Progress::total`]
    /// is exact.
    pub fn run(
        &self,
        functions: impl IntoIterator<Item = Function>,
        transform: impl Fn(&mut Module) + Sync,
    ) -> ValidationReport {
        let mut functions = functions.into_iter();
        let corpus: Vec<Function> = functions
            .by_ref()
            .take(self.budget.unwrap_or(usize::MAX))
            .collect();
        let source = Source::Indexed {
            make: &|i| corpus[i].clone(),
            indices: 0..corpus.len(),
            more: self.budget == Some(corpus.len()) && functions.next().is_some(),
        };
        self.drive(source, &transform)
    }

    /// Validates `transform` over `count` randomly generated functions
    /// without materializing the corpus: the driver hands out index
    /// ranges and each worker generates exactly the functions of its
    /// chunks, from the per-index RNG stream. The verdicts equal
    /// `self.run(random_functions(cfg, seed, count), ..)` at any worker
    /// count.
    pub fn run_random(
        &self,
        cfg: &GenConfig,
        seed: u64,
        count: usize,
        transform: impl Fn(&mut Module) + Sync,
    ) -> ValidationReport {
        let make = |i| {
            let f = random_functions_range(cfg, seed, i, 1).pop();
            f.expect("count is 1")
        };
        let source = Source::Indexed {
            make: &make,
            indices: 0..count,
            more: false,
        };
        self.drive(source, &transform)
    }

    /// Validates `transform` over the *entire* exhaustive function
    /// space of `cfg` — the paper's full sweep, not a sample — with a
    /// resumable checkpoint.
    ///
    /// The calling thread walks the odometer, aligning to this
    /// process's residue class under [`Campaign::with_process_shard`],
    /// and the driver hands the generated chunks to the workers.
    /// Because the walk happens on one thread, the set of functions
    /// checked — and therefore every verdict — is identical at any
    /// worker count.
    ///
    /// `resume` continues a previous sweep: the generator restarts at
    /// the checkpoint's cursor (so `fz{n}` names stay globally stable)
    /// and the returned report is **cumulative** — an
    /// interrupted-and-resumed sweep ends with byte-identical
    /// violations and tallies to an uninterrupted one.
    /// [`Campaign::with_budget`] bounds the functions checked *this
    /// call* (the natural sharding unit for cross-process sweeps);
    /// [`Campaign::with_deadline`] stops pulling new chunks when it
    /// expires. Either way the returned [`CampaignCheckpoint`] points
    /// at the exact next unchecked function.
    ///
    /// Only [`ValidationReport::stats`] describes this call alone
    /// (wall-clock, throughput, cache behavior of this process).
    ///
    /// # Panics
    ///
    /// Panics if `resume` was recorded with a different `cfg` (its
    /// cursor does not fit this space) or under a different
    /// [`Campaign::with_process_shard`] identity.
    pub fn run_exhaustive(
        &self,
        cfg: &GenConfig,
        resume: Option<&CampaignCheckpoint>,
        transform: impl Fn(&mut Module) + Sync,
    ) -> (ValidationReport, CampaignCheckpoint) {
        let (shard_id, shards) = self.process_shard;
        let mut generator = match resume {
            Some(cp) => {
                assert_eq!(
                    (cp.shard_id, cp.shards),
                    (shard_id, shards),
                    "checkpoint belongs to shard {}/{}, campaign is configured as {}/{}",
                    cp.shard_id,
                    cp.shards,
                    shard_id,
                    shards,
                );
                campaign_counters().resumes.incr();
                ExhaustiveFunctions::resume(cfg.clone(), &cp.cursor, cp.counter, cp.done)
                    .expect("checkpoint cursor does not fit this GenConfig")
            }
            None => ExhaustiveFunctions::new(cfg.clone()),
        };
        let source = Source::Odometer {
            generator: &mut generator,
            shard_id,
            shards,
        };
        let mut report = self.drive(source, &transform);

        let mut cp = resume.cloned().unwrap_or_default();
        (cp.shards, cp.shard_id) = (shards, shard_id);
        (cp.cursor, cp.counter, cp.done) = generator.cursor();
        cp.total += report.total;
        cp.changed += report.changed;
        cp.refined += report.refined;
        cp.inconclusive += report.inconclusive;
        // Earlier legs only hold smaller indices, so appending keeps
        // the violations in corpus order.
        cp.violations.append(&mut report.violations);
        report.total = cp.total;
        report.changed = cp.changed;
        report.refined = cp.refined;
        report.inconclusive = cp.inconclusive;
        report.violations = cp.violations.clone();
        (report, cp)
    }

    /// The one campaign driver. The calling thread pulls chunks from
    /// `source` — budget, deadline and (inside the odometer source)
    /// stride alignment are all decided there, in corpus order — and
    /// the chunks are checked inline at one worker or handed to the
    /// workers through a bounded [`HandoffQueue`]. The returned report
    /// covers this call only.
    fn drive<'s>(
        &self,
        mut source: Source<'s>,
        transform: &(impl Fn(&mut Module) + Sync),
    ) -> ValidationReport {
        let start = Instant::now();
        let ctrs = campaign_counters();
        ctrs.runs.incr();
        let chunk_cap = self.shard_size.max(1);
        let (size, exact) = source.size();
        let total = self.budget.map_or(size, |b| b.min(size));
        let workers = self.effective_workers(if exact {
            total.div_ceil(chunk_cap)
        } else {
            usize::MAX
        });
        // Exhaustive sources are transient: the odometer never revisits
        // a shape, so caching source enumerations would grow the
        // campaign's working set with the space instead of the (tiny)
        // set of canonical target forms. Sampled and caller-supplied
        // corpora do repeat, so their sources are cached like targets.
        let policy = CheckPolicy {
            transient_src: matches!(source, Source::Odometer { .. }),
        };
        let cache = OutcomeCache::new();
        let live = LiveCounters::default();
        let mut run_span = frost_telemetry::span("fuzz.campaign.run")
            .field("count", total)
            .field("chunk_cap", chunk_cap)
            .field("workers", workers);

        let mut checked = 0usize;
        let mut budget_stop = false;
        let mut deadline_hit = false;
        let mut pulled = 0usize;
        let mut pull = || -> Option<(usize, Chunk<'s>)> {
            let cap = match self.budget {
                Some(b) if b <= checked => {
                    budget_stop = true;
                    return None;
                }
                Some(b) => chunk_cap.min(b - checked),
                None => chunk_cap,
            };
            if self.deadline.is_some_and(|d| start.elapsed() >= d) {
                deadline_hit = true;
                return None;
            }
            let chunk = source.pull(cap)?;
            checked += chunk.len();
            pulled += 1;
            Some((pulled - 1, chunk))
        };
        // The one worker loop: check chunks from `next` until it runs
        // dry. `claim_ns` is how long each chunk took to arrive.
        let work = |next: &mut dyn FnMut() -> Option<(usize, Chunk<'s>)>| {
            let mut p = ValidationReport::default();
            loop {
                let wait = Instant::now();
                let Some((shard, chunk)) = next() else {
                    return p;
                };
                let claim_ns = wait.elapsed().as_nanos() as u64;
                ctrs.shards.incr();
                ctrs.claim_ns.record(claim_ns);
                let (lo, hi) = chunk.bounds();
                let shard_span = frost_telemetry::span("fuzz.campaign.shard")
                    .field("shard", shard)
                    .field("lo", lo)
                    .field("hi", hi)
                    .field("claim_ns", claim_ns);
                chunk.for_each(|index, f| {
                    self.check_fn(index, f, transform, &cache, policy, &mut p, &live, ctrs);
                });
                drop(shard_span);
                if let Some(obs) = &self.observer {
                    obs(&live.snapshot(total, start, &cache));
                }
            }
        };
        let partials: Vec<ValidationReport> = if workers <= 1 {
            vec![work(&mut pull)]
        } else {
            // Generation overlaps checking: workers drain a bounded
            // hand-off queue while the calling thread keeps pulling,
            // so neither side buffers more than `2 × workers` chunks
            // ahead.
            let queue = HandoffQueue::new(workers * 2);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            // Closing on exit (a no-op unless this
                            // worker panics) keeps the pulling thread
                            // from blocking forever on a full queue.
                            let _close = CloseOnDrop(&queue);
                            work(&mut || queue.pop())
                        })
                    })
                    .collect();
                while let Some(chunk) = pull() {
                    if !queue.push(chunk) {
                        break;
                    }
                }
                queue.close();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("validation worker panicked"))
                    .collect()
            })
        };

        let mut report = ValidationReport::default();
        for p in partials {
            report.total += p.total;
            report.changed += p.changed;
            report.refined += p.refined;
            report.inconclusive += p.inconclusive;
            report.violations.extend(p.violations);
        }
        // Erase chunk-completion order: verdicts come out in corpus
        // order regardless of which worker produced them.
        report.violations.sort_by_key(|v| v.index);

        let done = source.exhausted();
        let budget_hit = budget_stop && !done;
        if budget_hit {
            ctrs.skip_budget.incr();
        }
        let skipped = if deadline_hit && exact {
            total - report.total
        } else {
            0
        };
        ctrs.skip_deadline_fns.add(skipped as u64);
        run_span.set("checked", report.total);
        run_span.set("violations", report.violations.len());
        run_span.set("deadline_hit", deadline_hit);
        run_span.set("done", done);
        drop(run_span);

        let wall = start.elapsed();
        let secs = wall.as_secs_f64();
        report.stats = CampaignStats {
            workers,
            wall,
            functions_per_sec: if secs > 0.0 {
                report.total as f64 / secs
            } else {
                0.0
            },
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_entries: cache.len(),
            budget_hit,
            deadline_hit,
            skipped,
        };
        report
    }

    /// Checks one function: the verdict path every source shares.
    #[allow(clippy::too_many_arguments)]
    fn check_fn(
        &self,
        index: usize,
        f: Function,
        transform: &(impl Fn(&mut Module) + Sync),
        cache: &OutcomeCache,
        policy: CheckPolicy,
        p: &mut ValidationReport,
        live: &LiveCounters,
        ctrs: &CampaignCounters,
    ) {
        let name = f.name.clone();
        let mut before = Module::new();
        before.functions.push(f);
        let mut after = before.clone();
        transform(&mut after);

        p.total += 1;
        live.checked.fetch_add(1, Ordering::Relaxed);
        ctrs.checked.incr();
        if after != before {
            p.changed += 1;
            live.changed.fetch_add(1, Ordering::Relaxed);
            ctrs.changed.incr();
        }
        match check_refinement_cached_policy(
            &before, &name, &after, &name, &self.opts, cache, policy,
        ) {
            CheckResult::Refines => {
                p.refined += 1;
                live.refined.fetch_add(1, Ordering::Relaxed);
                ctrs.refined.incr();
            }
            CheckResult::CounterExample(ce) => {
                live.violations.fetch_add(1, Ordering::Relaxed);
                ctrs.violations.incr();
                p.violations.push(Violation {
                    index,
                    before: function_to_string(before.function(&name).expect("exists")),
                    after: function_to_string(after.function(&name).expect("exists")),
                    counterexample: ce.to_string(),
                });
            }
            CheckResult::Inconclusive(_) => {
                p.inconclusive += 1;
                live.inconclusive.fetch_add(1, Ordering::Relaxed);
                ctrs.inconclusive.incr();
            }
        }
    }

    fn effective_workers(&self, num_shards: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        requested.clamp(1, num_shards.max(1))
    }
}

/// Where a campaign's functions come from. Only the calling thread
/// touches a source; what it pulls travels to a worker as a [`Chunk`].
enum Source<'a> {
    /// [`Campaign::run`] and [`Campaign::run_random`]: the corpus
    /// indices still to hand out, which workers turn into functions
    /// with `make` — a lookup in the collected corpus, or random
    /// generation, which so runs in parallel. `more` records that the
    /// budget already cut the caller's corpus short.
    Indexed {
        make: &'a Maker<'a>,
        indices: Range<usize>,
        more: bool,
    },
    /// [`Campaign::run_exhaustive`]: the odometer walk over one
    /// residue class of a `shards`-process sweep, generated on the
    /// pulling thread.
    Odometer {
        generator: &'a mut ExhaustiveFunctions,
        shard_id: usize,
        shards: usize,
    },
}

/// Builds the corpus function at an index, on a worker thread.
type Maker<'a> = dyn Fn(usize) -> Function + Sync + 'a;

impl<'a> Source<'a> {
    /// Functions this source yields, and whether that count is exact:
    /// the odometer reports its residue class's share of the space (an
    /// estimate, for progress only).
    fn size(&self) -> (usize, bool) {
        match self {
            Source::Indexed { indices, .. } => (indices.len(), true),
            Source::Odometer {
                generator, shards, ..
            } => {
                let share = generator.approx_size() / *shards as u128;
                (share.min(usize::MAX as u128) as usize, false)
            }
        }
    }

    /// Up to `cap` more functions, or `None` once the source is dry.
    fn pull(&mut self, cap: usize) -> Option<Chunk<'a>> {
        let chunk = match self {
            Source::Indexed { make, indices, .. } => {
                let lo = indices.start;
                indices.start += cap.min(indices.len());
                Chunk::Indexed(*make, lo..indices.start)
            }
            Source::Odometer {
                generator,
                shard_id,
                shards,
            } => {
                let stride = *shards as u64;
                let mut fns = Vec::with_capacity(cap);
                while fns.len() < cap {
                    // Self-align to this process's residue class: jump
                    // over positions owned by other shards. (A bare
                    // `.position()` on `&mut _` would resolve to
                    // `Iterator::position`.)
                    let pos = ExhaustiveFunctions::position(generator);
                    let ahead = (*shard_id as u64 + stride - pos % stride) % stride;
                    if ahead > 0 {
                        generator.fast_forward(ahead);
                        campaign_counters().skip_stride.add(ahead);
                    }
                    let index = ExhaustiveFunctions::position(generator) as usize;
                    let Some(f) = generator.next() else { break };
                    fns.push((index, f));
                }
                Chunk::Built(fns)
            }
        };
        (chunk.len() > 0).then_some(chunk)
    }

    /// `true` once nothing is left to pull.
    fn exhausted(&self) -> bool {
        match self {
            Source::Indexed { indices, more, .. } => indices.is_empty() && !more,
            Source::Odometer { generator, .. } => generator.cursor().2,
        }
    }
}

/// One unit of work handed from the pulling thread to a worker.
enum Chunk<'a> {
    /// Corpus indices the worker builds functions for.
    Indexed(&'a Maker<'a>, Range<usize>),
    /// Functions the pulling thread already built, with their corpus
    /// indices.
    Built(Vec<(usize, Function)>),
}

impl Chunk<'_> {
    fn len(&self) -> usize {
        match self {
            Chunk::Indexed(_, indices) => indices.len(),
            Chunk::Built(fns) => fns.len(),
        }
    }

    /// The corpus-index span `[lo, hi)` the chunk covers.
    fn bounds(&self) -> (usize, usize) {
        match self {
            Chunk::Indexed(_, indices) => (indices.start, indices.end),
            Chunk::Built(fns) => (
                fns.first().map_or(0, |f| f.0),
                fns.last().map_or(0, |f| f.0 + 1),
            ),
        }
    }

    fn for_each(self, mut check: impl FnMut(usize, Function)) {
        match self {
            Chunk::Indexed(make, indices) => indices.for_each(|i| check(i, make(i))),
            Chunk::Built(fns) => fns.into_iter().for_each(|(i, f)| check(i, f)),
        }
    }
}

/// A bounded single-producer hand-off queue: the pulling thread
/// blocks once `cap` chunks are in flight, workers block while it is
/// empty, and [`HandoffQueue::close`] drains the remainder and then
/// releases everyone. Bounding the queue keeps a fast generator from
/// buffering an entire exhaustive space ahead of slow checkers.
struct HandoffQueue<T> {
    state: Mutex<HandoffState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

struct HandoffState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> HandoffQueue<T> {
    fn new(cap: usize) -> HandoffQueue<T> {
        HandoffQueue {
            state: Mutex::new(HandoffState {
                items: VecDeque::with_capacity(cap.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks until there is room, then enqueues. Producer-side only.
    /// Returns `false` (dropping `item`) once the queue is closed: a
    /// worker that panicked closed it, and nobody may be left to pop.
    fn push(&self, item: T) -> bool {
        let mut st = self.state.lock().expect("queue poisoned");
        while st.items.len() >= self.cap && !st.closed {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Marks the stream complete: blocked poppers drain what is left
    /// and then observe the close, and a blocked pusher gives up. Runs
    /// while a worker unwinds too, so it must not panic.
    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Blocks for the next chunk; `None` once the queue is closed and
    /// empty.
    fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue poisoned");
        }
    }
}

/// Closes the queue when dropped.
struct CloseOnDrop<'q, T>(&'q HandoffQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Shared atomics behind the live [`Progress`] snapshots.
#[derive(Default)]
struct LiveCounters {
    checked: AtomicUsize,
    changed: AtomicUsize,
    refined: AtomicUsize,
    violations: AtomicUsize,
    inconclusive: AtomicUsize,
}

impl LiveCounters {
    fn snapshot(&self, total: usize, start: Instant, cache: &OutcomeCache) -> Progress {
        let checked = self.checked.load(Ordering::Relaxed);
        let elapsed = start.elapsed();
        let secs = elapsed.as_secs_f64();
        let (h, m) = (cache.hits() as f64, cache.misses() as f64);
        Progress {
            checked,
            total,
            changed: self.changed.load(Ordering::Relaxed),
            refined: self.refined.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            inconclusive: self.inconclusive.load(Ordering::Relaxed),
            elapsed,
            functions_per_sec: if secs > 0.0 {
                checked as f64 / secs
            } else {
                0.0
            },
            cache_hit_rate: if h + m == 0.0 { 0.0 } else { h / (h + m) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::enumerate_functions;
    use frost_opt::{o2_pipeline, PipelineMode};
    use std::sync::atomic::AtomicUsize;

    fn pipeline_transform(mode: PipelineMode) -> impl Fn(&mut Module) + Sync {
        let pm = o2_pipeline(mode);
        move |m: &mut Module| {
            pm.run(m);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_exhaustive_corpus() {
        let cfg = GenConfig::arithmetic(2);
        let corpus: Vec<Function> = enumerate_functions(cfg).step_by(457).take(120).collect();
        let seq = Campaign::new(Semantics::proposed())
            .with_workers(1)
            .run(corpus.clone(), pipeline_transform(PipelineMode::Fixed));
        let par = Campaign::new(Semantics::proposed())
            .with_workers(4)
            .with_shard_size(8)
            .run(corpus, pipeline_transform(PipelineMode::Fixed));
        assert_eq!(seq.total, par.total);
        assert_eq!(seq.changed, par.changed);
        assert_eq!(seq.refined, par.refined);
        assert_eq!(seq.inconclusive, par.inconclusive);
        assert_eq!(seq.violations.len(), par.violations.len());
        assert_eq!(par.stats.workers, 4);
    }

    #[test]
    fn budget_truncates_deterministically() {
        let cfg = GenConfig::arithmetic(2);
        let report = Campaign::new(Semantics::proposed())
            .with_budget(25)
            .with_workers(2)
            .with_shard_size(4)
            .run_random(&cfg, 3, 100, pipeline_transform(PipelineMode::Fixed));
        assert_eq!(report.total, 25);
        assert!(report.stats.budget_hit);
        let full = Campaign::new(Semantics::proposed())
            .with_workers(2)
            .run_random(&cfg, 3, 25, pipeline_transform(PipelineMode::Fixed));
        assert!(!full.stats.budget_hit);
        assert_eq!(report.refined, full.refined);
    }

    #[test]
    fn observer_sees_monotone_progress() {
        let cfg = GenConfig::arithmetic(2);
        let calls = std::sync::Arc::new(AtomicUsize::new(0));
        let calls2 = std::sync::Arc::clone(&calls);
        let report = Campaign::new(Semantics::proposed())
            .with_workers(2)
            .with_shard_size(5)
            .with_observer(move |p: &Progress| {
                assert!(p.checked <= p.total);
                calls2.fetch_add(1, Ordering::Relaxed);
            })
            .run_random(&cfg, 11, 40, pipeline_transform(PipelineMode::Fixed));
        assert_eq!(report.total, 40);
        assert!(
            calls.load(Ordering::Relaxed) >= 40 / 5,
            "one call per shard"
        );
    }

    #[test]
    fn deadline_cuts_off_and_reports_skips() {
        let cfg = GenConfig::arithmetic(3);
        let report = Campaign::new(Semantics::proposed())
            .with_workers(2)
            .with_shard_size(1)
            .with_deadline(Duration::ZERO)
            .run_random(&cfg, 5, 50, pipeline_transform(PipelineMode::Fixed));
        assert!(report.stats.deadline_hit);
        assert_eq!(report.total + report.stats.skipped, 50);
    }

    fn tiny_undef_cfg() -> GenConfig {
        // 32 one-instruction functions over {a, b, 2, undef}: small
        // enough to sweep in tests, rich enough that the legacy
        // InstCombine pipeline produces §3.1 violations under
        // legacy-GVN semantics.
        GenConfig {
            ops: vec![frost_ir::BinOp::Mul, frost_ir::BinOp::Add],
            consts: vec![2],
            poison_const: false,
            flags: false,
            freeze: false,
            ..GenConfig::arithmetic(1)
        }
        .with_undef()
    }

    fn legacy_transform() -> impl Fn(&mut Module) + Sync {
        let pm = o2_pipeline(PipelineMode::Legacy);
        move |m: &mut Module| {
            pm.run(m);
        }
    }

    fn assert_same_verdicts(a: &ValidationReport, b: &ValidationReport) {
        assert_eq!(a.total, b.total);
        assert_eq!(a.changed, b.changed);
        assert_eq!(a.refined, b.refined);
        assert_eq!(a.inconclusive, b.inconclusive);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn exhaustive_sweep_is_deterministic_across_worker_counts() {
        let cfg = tiny_undef_cfg();
        let opts = CheckOptions::new(Semantics::legacy_gvn());
        let (base, base_cp) = Campaign::with_options(opts).with_workers(1).run_exhaustive(
            &cfg,
            None,
            legacy_transform(),
        );
        assert!(base.total > 0 && base_cp.done);
        assert!(!base.is_clean(), "the tiny space must surface §3.1");
        for workers in [2, 8] {
            let (r, cp) = Campaign::with_options(opts)
                .with_workers(workers)
                .with_shard_size(3)
                .run_exhaustive(&cfg, None, legacy_transform());
            assert_same_verdicts(&base, &r);
            assert_eq!(base_cp, cp, "checkpoints must agree at {workers} workers");
        }
    }

    #[test]
    fn interrupted_sweep_resumes_to_identical_final_report() {
        let cfg = tiny_undef_cfg();
        let opts = CheckOptions::new(Semantics::legacy_gvn());
        let (full, full_cp) = Campaign::with_options(opts).with_workers(2).run_exhaustive(
            &cfg,
            None,
            legacy_transform(),
        );

        // Kill after 10 functions, round-trip the checkpoint through
        // its JSONL artifact, resume to the end.
        let (partial, cp) = Campaign::with_options(opts)
            .with_workers(1)
            .with_budget(10)
            .run_exhaustive(&cfg, None, legacy_transform());
        assert_eq!(partial.total, 10);
        assert!(partial.stats.budget_hit && !cp.done);
        let dir = std::env::temp_dir().join("frost-campaign-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.jsonl");
        cp.save_jsonl(&path).unwrap();
        let restored = CampaignCheckpoint::load_jsonl(&path).unwrap();
        assert_eq!(restored, cp);
        std::fs::remove_file(&path).ok();

        let (resumed, resumed_cp) = Campaign::with_options(opts).with_workers(8).run_exhaustive(
            &cfg,
            Some(&restored),
            legacy_transform(),
        );
        assert_same_verdicts(&full, &resumed);
        assert_eq!(full_cp, resumed_cp);
        assert!(resumed_cp.done);
    }

    #[test]
    #[should_panic(expected = "validation worker panicked")]
    fn a_panicking_transform_fails_the_campaign_instead_of_hanging_it() {
        // Both workers die on their first chunk while the pulling
        // thread still has chunks to hand out.
        Campaign::new(Semantics::proposed())
            .with_workers(2)
            .with_shard_size(1)
            .run_random(&GenConfig::arithmetic(1), 1, 100, |_m| {
                panic!("transform bug")
            });
    }

    #[test]
    fn campaign_cache_sees_redundant_corpus() {
        // An identical source/target pair costs exactly one cache
        // lookup (the checker's identity fast path), so a corpus that
        // repeats every function must answer the second round entirely
        // from the cache.
        let cfg = GenConfig::arithmetic(1);
        let mut corpus: Vec<Function> = random_functions_range(&cfg, 9, 0, 15);
        corpus.extend(random_functions_range(&cfg, 9, 0, 15));
        let report = Campaign::new(Semantics::proposed())
            .with_workers(1)
            .run(corpus, |_m| {});
        assert_eq!(report.changed, 0);
        assert_eq!(report.total, 30);
        assert!(
            report.stats.cache_hits >= 15,
            "the repeated half must hit: {:?}",
            report.stats
        );
        assert!(report.stats.cache_hit_rate() > 0.4);
    }
}
