//! No-panic gate for the shared artifact reader (`frost_telemetry::json`
//! and its two users): seeded byte mutations of a campaign checkpoint
//! and of a telemetry + bench-record JSONL must come back from
//! `CampaignCheckpoint::from_jsonl` / `validate_jsonl` as `Ok` or
//! `Err` — never as a panic — and most of them must be `Err`.
//!
//! The mutations are deterministic (a fixed `frost-rng` seed per
//! artifact) and dependency-free, so a failure names a mutation number
//! that reproduces on every machine.

use std::panic::{catch_unwind, AssertUnwindSafe};

use frost_fuzz::{CampaignCheckpoint, Violation};
use frost_rng::SmallRng;
use frost_telemetry::validate_jsonl;

/// Mutated inputs per artifact.
const MUTATIONS: usize = 20_000;

/// Bytes a mutation likes to insert or overwrite with: JSON structure,
/// escapes, number syntax, literal starts, and UTF-8 lead and
/// continuation bytes.
const INTERESTING: &[u8] = b"{}[]\":,\\/-+.eE019tfnu \t\n\x80\xc3\xe2\xf0\xff";

fn sample_checkpoint() -> String {
    CampaignCheckpoint {
        cursor: vec![0, 327, 219],
        counter: u64::MAX - 1,
        done: false,
        shards: 2,
        shard_id: 1,
        total: 40_000,
        changed: 19_204,
        refined: 39_998,
        inconclusive: 1,
        violations: vec![Violation {
            index: 12_345,
            before: "define i2 @fz12345(i2 %a) {\n  %x = \"mul\" i2 %a, 2 ; café → ∀\n}".into(),
            after: "define i2 @fz12345(i2 %a) {\n  %x = add i2 %a, %a ; 🦀\n}".into(),
            counterexample: "args (undef): src {0, 2}, tgt {0, 1, 2, 3} \\ «é»".into(),
        }],
    }
    .to_jsonl()
}

/// A traced span, a point event and a bench record, in the exact
/// shape `render_jsonl` and `repro --bench-json` write.
const SAMPLE_TRACE: &str = "\
{\"ev\":\"start\",\"span\":1,\"name\":\"fuzz.campaign.run\",\"tid\":1,\"ts_ns\":10}
{\"ev\":\"stop\",\"span\":1,\"name\":\"fuzz.campaign.run\",\"tid\":1,\"ts_ns\":90,\"dur_ns\":80,\
\"pass\":\"inst\\\"combine\\n→\",\"checked\":40000,\"delta\":-3,\"rate\":0.25,\"done\":false}
{\"ev\":\"point\",\"span\":0,\"name\":\"backend.sim.block\",\"tid\":1,\"ts_ns\":95,\"cycles\":7}
{\"kind\":\"bench\",\"experiment\":\"sweep\",\"domain\":\"arith\",\"insts\":3,\
\"space\":\"6276505536\",\"prune\":true,\"complete\":false,\"fns_per_sec\":97000.5}
";

fn mutate(rng: &mut SmallRng, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..1 + rng.gen_range(0..3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        let interesting = INTERESTING[rng.gen_range(0..INTERESTING.len())];
        match rng.gen_range(0..6) {
            0 => bytes[at] ^= 1 << rng.gen_range(0..8),
            1 => bytes[at] = rng.next_u64() as u8,
            2 => bytes[at] = interesting,
            3 => bytes.insert(at, interesting),
            4 => {
                bytes.remove(at);
            }
            _ => {
                let end = (at + 1 + rng.gen_range(0..16)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
        }
    }
    bytes
}

/// Runs [`MUTATIONS`] mutants of `input` through `accepts` (which
/// reports `Ok` as `true`); panics name the mutant, and at least half
/// of the mutants must be rejected.
fn mutation_gate(what: &str, input: &str, seed: u64, accepts: impl Fn(&str) -> bool) {
    assert!(accepts(input), "{what}: the unmutated artifact must load");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rejected = 0;
    for i in 0..MUTATIONS {
        let bytes = mutate(&mut rng, input.as_bytes());
        let text = String::from_utf8_lossy(&bytes);
        match catch_unwind(AssertUnwindSafe(|| accepts(&text))) {
            Ok(true) => {}
            Ok(false) => rejected += 1,
            Err(_) => panic!("{what}: mutant {i} panicked the reader:\n{text}"),
        }
    }
    assert!(
        rejected * 2 > MUTATIONS,
        "{what}: only {rejected} of {MUTATIONS} mutants rejected"
    );
}

#[test]
fn mutated_checkpoints_never_panic_the_loader() {
    mutation_gate("checkpoint", &sample_checkpoint(), 0xC4EC_2017, |t| {
        CampaignCheckpoint::from_jsonl(t).is_ok()
    });
}

#[test]
fn mutated_traces_never_panic_the_validator() {
    mutation_gate("telemetry", SAMPLE_TRACE, 0x7E1E_2017, |t| {
        validate_jsonl(t).is_ok()
    });
}

/// Pinned: two stop events of one key whose `dur_ns` sum past
/// `u64::MAX` overflowed the validator's per-key total (a panic in
/// debug builds). The total now saturates.
#[test]
fn summed_durations_past_u64_max_do_not_overflow() {
    let stop = |span: u64| {
        format!(
            "{{\"ev\":\"start\",\"span\":{span},\"name\":\"a.b.c\",\"tid\":1,\"ts_ns\":0}}\n\
             {{\"ev\":\"stop\",\"span\":{span},\"name\":\"a.b.c\",\"tid\":1,\"ts_ns\":1,\
             \"dur_ns\":{}}}\n",
            u64::MAX
        )
    };
    let stats = validate_jsonl(&(stop(1) + &stop(2))).expect("valid artifact");
    assert_eq!(stats.by_key["a.b.c"].total_ns, u64::MAX);
}
