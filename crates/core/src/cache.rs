//! Outcome-enumeration memoization for validation campaigns.
//!
//! The §6 methodology checks millions of tiny functions, and the hot
//! loop is [`crate::exec::enumerate_outcomes`] run
//! once per (function, input) pair for both the source and the target
//! of every check. Campaign corpora are massively redundant: a no-op
//! transform leaves the target textually identical to the source, and
//! aggressive pipelines fold thousands of distinct inputs to the same
//! handful of canonical forms (`ret 0`, `ret %a`, …). [`OutcomeCache`]
//! memoizes a function's outcomes on its *entire input list* under a
//! given semantics — as bit-sliced lane masks or as a per-input vector,
//! see [`CacheEntry`] — so each distinct (function shape, semantics)
//! combination is enumerated exactly once per campaign.
//!
//! ## Cache key
//!
//! `(structural fingerprint, semantics, limits, engine, salt)` where
//! the fingerprint is [`FunctionKey`] — an exact, name-independent
//! encoding of the function body. Generated corpora name every function
//! differently (`fz0`, `fz1`, …) and the name is semantically
//! irrelevant, so α-equivalent bodies share one entry; because the key
//! stores the full encoding, equality is structural and collisions are
//! impossible. The [`Engine`] is part of the key because engines may
//! legitimately differ on *errors* (the strict bit-sliced engine
//! reports ineligible programs as unsupported). The `salt` is a
//! caller-supplied fingerprint of everything else that shapes the
//! result (input-enumeration options, test-memory size); callers that
//! enumerate inputs differently must use different salts.
//!
//! The cache is thread-safe (a mutexed map plus atomic hit/miss
//! counters) and is shared by all workers of a parallel campaign.
//! Stored entries are single-flight: the first worker to miss a key
//! enumerates it while later workers wait for that result, so every
//! stored key is enumerated — and counted as a miss — exactly once,
//! whatever the worker count. The
//! map hashes with [`crate::fasthash::FastHasher`]: keys are in-process
//! fingerprints of generated IR, so the keyed DoS resistance of the
//! default hasher buys nothing on this hot path.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use frost_ir::{FunctionKey, Module};

use crate::bitslice::LaneOutcomes;
use crate::engine::{run_compiled, Engine};
use crate::exec::{reference, ExecError, Limits};
use crate::fasthash::FastHashMap;
use crate::mem::Memory;
use crate::outcome::OutcomeSet;
use crate::plan::{ModulePlan, PlanCache};
use crate::sem::Semantics;
use crate::val::{Bits, Val};

/// The result of enumerating one function on a fixed input list: one
/// entry per input tuple, each either the outcome set or the
/// enumeration failure on that input. Keeping failures *per input*
/// (rather than aborting the vector) lets a cached refinement check
/// reproduce the sequential checker's verdict exactly — including
/// which input it reports as inconclusive.
pub type EnumeratedOutcomes = Vec<Result<OutcomeSet, ExecError>>;

/// One memoized enumeration, in whichever form its engine produced,
/// shared between the cache and its callers. Each form sits behind its
/// own `Arc`, so a per-input entry costs what it did before lane
/// entries existed, and a lane entry is one allocation.
#[derive(Clone, Debug)]
pub enum CacheEntry {
    /// The bit-sliced engine's result, still as lane masks (lane `i` is
    /// input `i`), with the initial-memory snapshot every `Ret` outcome
    /// carries. Never holds a failure.
    Lanes(Arc<(LaneOutcomes, Bits)>),
    /// Per-input results (plan machine, reference tree-walk, or the
    /// strict bit-slicer's refusal on every input).
    Sets(Arc<EnumeratedOutcomes>),
}

impl CacheEntry {
    /// The result on input `i`: borrowed from a per-input entry, built
    /// from a lane entry.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> Result<Cow<'_, OutcomeSet>, &ExecError> {
        match self {
            CacheEntry::Lanes(l) => Ok(Cow::Owned(l.0.outcome_set(i, &l.1))),
            CacheEntry::Sets(all) => all[i].as_ref().map(Cow::Borrowed),
        }
    }

    /// The first input whose enumeration failed, with its error.
    pub fn first_error(&self) -> Option<(usize, &ExecError)> {
        match self {
            CacheEntry::Lanes(_) => None,
            CacheEntry::Sets(all) => all
                .iter()
                .enumerate()
                .find_map(|(i, r)| r.as_ref().err().map(|e| (i, e))),
        }
    }

    /// This entry as lane masks plus the memory snapshot its `Ret`
    /// outcomes carry (`None` if none returns), for a function
    /// returning `iN` (`N = ret_bits`, `0` for any other type). A lane
    /// entry is that already; a per-input entry converts when it fits
    /// (every `Ret` outcome free of calls, returning void or a value
    /// the lane codes cover, with one shared memory snapshot).
    pub fn lane_form(&self, ret_bits: u32) -> Option<(LaneOutcomes, Option<&Bits>)> {
        match self {
            CacheEntry::Lanes(l) => Some((l.0, Some(&l.1))),
            CacheEntry::Sets(all) => LaneOutcomes::from_sets(all, ret_bits),
        }
    }

    /// The per-input results, building every lane of a lane entry.
    pub(crate) fn into_vec(self) -> EnumeratedOutcomes {
        match self {
            CacheEntry::Lanes(l) => (0..l.0.lanes())
                .map(|lane| Ok(l.0.outcome_set(lane, &l.1)))
                .collect(),
            CacheEntry::Sets(all) => Arc::unwrap_or_clone(all),
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    key: FunctionKey,
    sem: Semantics,
    limits: Limits,
    engine: Engine,
    salt: u64,
}

/// Enumerates every behavior of `name` in `module` on each input tuple
/// in turn (no caching — see [`OutcomeCache::enumerate`] for the
/// memoized variant).
///
/// Runs on the plan engine: the function is compiled once and all
/// inputs execute on one reused machine, so per-input cost is
/// execution only. For engine selection use
/// [`crate::engine::enumerate_function`].
pub fn enumerate_all_inputs(
    module: &Module,
    name: &str,
    inputs: &[Vec<Val>],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
) -> EnumeratedOutcomes {
    crate::engine::enumerate_function(module, name, inputs, mem, sem, limits, Engine::Plan)
}

fn bad_function(name: &str) -> CacheEntry {
    CacheEntry::Sets(Arc::new(vec![Err(ExecError::BadFunction(
        name.to_string(),
    ))]))
}

/// One table entry: filled once by the worker that first missed its
/// key; workers that race it block in [`OnceLock::get_or_init`].
type Slot = Arc<OnceLock<CacheEntry>>;

/// A thread-safe memoization table for whole-function outcome
/// enumeration. See the [module docs](self) for the key structure.
#[derive(Default)]
pub struct OutcomeCache {
    map: Mutex<FastHashMap<CacheKey, Slot>>,
    plans: PlanCache,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Process-wide mirrors of the per-cache hit/miss tallies, registered
/// once (`frost.core.cache.hits` / `frost.core.cache.misses` — see
/// docs/OBSERVABILITY.md). Stored keys miss exactly once, but a
/// transient probe (`store = false`) hits only if another check already
/// filled its key, which depends on worker interleaving, so the global
/// counters are throughput telemetry, not a determinism surface.
fn global_cache_counters() -> (
    &'static frost_telemetry::Counter,
    &'static frost_telemetry::Counter,
) {
    static COUNTERS: OnceLock<(
        &'static frost_telemetry::Counter,
        &'static frost_telemetry::Counter,
    )> = OnceLock::new();
    *COUNTERS.get_or_init(|| {
        (
            frost_telemetry::counter("frost.core.cache.hits"),
            frost_telemetry::counter("frost.core.cache.misses"),
        )
    })
}

impl OutcomeCache {
    /// An empty cache.
    pub fn new() -> OutcomeCache {
        OutcomeCache::default()
    }

    /// A diagnostic rendering of the fingerprint the cache keys a
    /// function on: [`FunctionKey`]'s debug form (hash plus encoded
    /// body words). This replaces the retired canonical-text path —
    /// keys are structural, never stringly, and the debug rendering is
    /// only for telling cache entries apart in logs and tests.
    pub fn key_debug(module: &Module, name: &str) -> Option<String> {
        Some(format!("{:?}", FunctionKey::of(module.function(name)?)))
    }

    /// Memoized enumeration of every input under `engine`. On a hit the
    /// stored entry is returned without touching the interpreter; on a
    /// miss the enumeration runs and the result — including failures,
    /// which are just as expensive to rediscover — is stored.
    ///
    /// `salt` must fingerprint every input-shaping option that is not
    /// part of the key (input-enumeration options, memory size).
    // Every parameter is a distinct cache-key component; bundling them
    // into a struct would just move the field list one call up.
    #[allow(clippy::too_many_arguments)]
    pub fn enumerate(
        &self,
        module: &Module,
        name: &str,
        inputs: &[Vec<Val>],
        mem: &Memory,
        sem: Semantics,
        limits: Limits,
        engine: Engine,
        salt: u64,
    ) -> CacheEntry {
        let Some(func) = module.function(name) else {
            return bad_function(name);
        };
        let key = FunctionKey::of(func);
        self.enumerate_keyed(
            &key, module, name, inputs, mem, sem, limits, engine, salt, true,
        )
    }

    /// [`OutcomeCache::enumerate`] for callers that already computed
    /// `name`'s [`FunctionKey`], with an explicit storage policy.
    ///
    /// `store = false` is for *transient* functions — exhaustive-sweep
    /// sources, which the odometer visits exactly once. The probe still
    /// runs (the shape may coincide with a canonical form some target
    /// check stored), but a miss enumerates without inserting into
    /// either the outcome map or the embedded plan cache, keeping the
    /// campaign's memory footprint bounded by the *target* shape count
    /// instead of the full enumerated space.
    ///
    /// `key` must be `FunctionKey::of` of `name`'s body; a mismatched
    /// key silently poisons the cache for that fingerprint.
    // Every parameter is a distinct cache-key component; bundling them
    // into a struct would just move the field list one call up.
    #[allow(clippy::too_many_arguments)]
    pub fn enumerate_keyed(
        &self,
        fkey: &FunctionKey,
        module: &Module,
        name: &str,
        inputs: &[Vec<Val>],
        mem: &Memory,
        sem: Semantics,
        limits: Limits,
        engine: Engine,
        salt: u64,
        store: bool,
    ) -> CacheEntry {
        if module.function(name).is_none() {
            return bad_function(name);
        }
        let key = CacheKey {
            key: fkey.clone(),
            sem,
            limits,
            engine,
            salt,
        };
        let slot = {
            let mut map = self.map.lock().expect("cache lock");
            match map.get(&key) {
                Some(slot) => Some(Arc::clone(slot)),
                None if store => Some(Arc::clone(map.entry(key.clone()).or_default())),
                None => None,
            }
        };
        // Enumerate outside the map lock: enumeration is the expensive
        // part and holding the lock across it would serialize every
        // worker. Only workers racing on the *same* stored key wait on
        // each other, in the slot's `get_or_init`; the one that runs the
        // enumeration counts the miss and the rest count hits.
        let mut missed = false;
        let mut enumerate = || {
            missed = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            global_cache_counters().1.incr();
            self.enumerate_uncached(
                &key.key, module, name, inputs, mem, sem, limits, engine, store,
            )
        };
        let entry = match slot {
            Some(slot) if store => slot.get_or_init(enumerate).clone(),
            // A transient probe never waits on or fills a pending slot.
            Some(slot) => match slot.get() {
                Some(entry) => entry.clone(),
                None => enumerate(),
            },
            None => enumerate(),
        };
        if !missed {
            self.hits.fetch_add(1, Ordering::Relaxed);
            global_cache_counters().0.incr();
        }
        entry
    }

    /// The enumeration behind a cache miss.
    ///
    /// A compiled plan is retained only when the plan machine ran on
    /// it: a bit-sliced miss compiles, lowers and drops its plan, since
    /// its outcome entry already answers every later probe of the same
    /// key, while a plan-machine function keeps its plan for the other
    /// salts (initial memories, input options) it is enumerated under.
    #[allow(clippy::too_many_arguments)]
    fn enumerate_uncached(
        &self,
        fkey: &FunctionKey,
        module: &Module,
        name: &str,
        inputs: &[Vec<Val>],
        mem: &Memory,
        sem: Semantics,
        limits: Limits,
        engine: Engine,
        store: bool,
    ) -> CacheEntry {
        if engine == Engine::Reference {
            return CacheEntry::Sets(Arc::new(
                inputs
                    .iter()
                    .map(|args| reference::enumerate_outcomes(module, name, args, mem, sem, limits))
                    .collect(),
            ));
        }
        // The plan key ignores limits, engine, and salt, so a function
        // enumerated under different input options still reuses one
        // compilation; the outcome key's fingerprint doubles as the
        // plan key.
        let (plan, idx, retained) = match self.plans.get(fkey, sem) {
            Some((plan, idx)) => (plan, idx, true),
            None => {
                let plan = Arc::new(ModulePlan::compile(module, sem));
                let Some(idx) = plan.function_index(name) else {
                    return bad_function(name);
                };
                (plan, idx, false)
            }
        };
        let entry = run_compiled(&plan, idx, inputs, mem, limits, engine);
        let ran_plan_machine = matches!(entry, CacheEntry::Sets(_)) && engine != Engine::BitSliced;
        if store && ran_plan_machine && !retained {
            self.plans.retain(fkey, sem, (plan, idx));
        }
        entry
    }

    /// The embedded plan cache (distinct compiled functions, plan-cache
    /// hit statistics).
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to enumerate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 for an unused cache.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Distinct (function, semantics) combinations stored.
    pub fn len(&self) -> usize {
        let map = self.map.lock().expect("cache lock");
        map.values().filter(|slot| slot.get().is_some()).count()
    }

    /// Returns `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::parse_module;

    const F: &str = "define i2 @g(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}";

    /// Whether two handles share one stored entry.
    fn same_entry(a: &CacheEntry, b: &CacheEntry) -> bool {
        match (a, b) {
            (CacheEntry::Lanes(a), CacheEntry::Lanes(b)) => Arc::ptr_eq(a, b),
            (CacheEntry::Sets(a), CacheEntry::Sets(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn inputs() -> Vec<Vec<Val>> {
        (0..4).map(|v| vec![Val::int(2, v)]).collect()
    }

    #[test]
    fn memoized_matches_fresh() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let sem = Semantics::proposed();
        let fresh = enumerate_all_inputs(
            &m,
            "g",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
        );
        let cached = cache.enumerate(
            &m,
            "g",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        assert!(fresh.iter().all(Result::is_ok));
        assert_eq!(fresh, cached.clone().into_vec());
        assert_eq!(cache.misses(), 1);
        let again = cache.enumerate(
            &m,
            "g",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        assert_eq!(cache.hits(), 1);
        assert!(same_entry(&cached, &again));
    }

    #[test]
    fn name_is_canonicalized_away() {
        let a = parse_module(F).unwrap();
        let b = parse_module(&F.replace("@g", "@differently_named")).unwrap();
        let cache = OutcomeCache::new();
        let sem = Semantics::proposed();
        cache.enumerate(
            &a,
            "g",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        cache.enumerate(
            &b,
            "differently_named",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        assert_eq!(cache.hits(), 1, "same body under a new name must hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn semantics_and_salt_separate_entries() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let mem = Memory::zeroed(0);
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            Semantics::proposed(),
            Limits::default(),
            Engine::Plan,
            0,
        );
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            Semantics::legacy_gvn(),
            Limits::default(),
            Engine::Plan,
            0,
        );
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            Semantics::proposed(),
            Limits::default(),
            Engine::Plan,
            1,
        );
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn plans_are_shared_across_salts() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let mem = Memory::zeroed(0);
        let sem = Semantics::proposed();
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            sem,
            Limits::default(),
            Engine::Plan,
            1,
        );
        assert_eq!(cache.misses(), 2, "different salts miss the outcome cache");
        assert_eq!(cache.plans().len(), 1, "but share one compiled plan");
    }

    #[test]
    fn only_the_plan_machine_retains_its_plan() {
        let m = parse_module(F).unwrap();
        let mem = Memory::zeroed(0);
        let run = |cache: &OutcomeCache, engine| {
            let sem = Semantics::proposed();
            cache.enumerate(&m, "g", &inputs(), &mem, sem, Limits::default(), engine, 0)
        };
        let sliced = OutcomeCache::new();
        let lanes = run(&sliced, Engine::Auto);
        assert!(matches!(lanes, CacheEntry::Lanes(_)));
        assert_eq!(sliced.plans().len(), 0, "a bit-sliced miss drops its plan");
        let planned = OutcomeCache::new();
        let sets = run(&planned, Engine::Plan);
        assert!(matches!(sets, CacheEntry::Sets(_)));
        assert_eq!(
            planned.plans().len(),
            1,
            "a plan-machine miss keeps its plan"
        );
        assert_eq!(lanes.into_vec(), sets.into_vec());
    }

    #[test]
    fn missing_function_is_an_error_not_a_panic() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let r = cache.enumerate(
            &m,
            "nope",
            &inputs(),
            &Memory::zeroed(0),
            Semantics::proposed(),
            Limits::default(),
            Engine::Plan,
            0,
        );
        assert!(matches!(r.get(0), Err(ExecError::BadFunction(_))));
    }

    #[test]
    fn racing_workers_enumerate_a_stored_key_once() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let entries: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        cache.enumerate(
                            &m,
                            "g",
                            &inputs(),
                            &Memory::zeroed(0),
                            Semantics::proposed(),
                            Limits::default(),
                            Engine::Plan,
                            0,
                        )
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!((cache.misses(), cache.hits()), (1, 7));
        assert_eq!(cache.plans().len(), 1);
        assert!(entries.iter().all(|e| same_entry(e, &entries[0])));
    }
}
