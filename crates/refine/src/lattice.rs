//! The refinement order on values, bits, events, and outcomes.
//!
//! Refinement (written `t ⊑ s`, "t refines s") is the correctness
//! criterion for transformations: every behavior of the target must be
//! allowed by the source. Deferred UB values sit at the top:
//!
//! * anything refines `poison`;
//! * any *defined* value (or `undef`) refines `undef` — but `poison`
//!   does **not** (poison is strictly stronger than undef, §3.4's
//!   `select %c, %x, undef` bug is exactly a violation of this);
//! * a defined value refines only itself.

use frost_core::{Bit, LaneOutcomes, Outcome, OutcomeSet, Val};

/// Returns `true` if value `tgt` refines value `src`.
pub fn val_refines(tgt: &Val, src: &Val) -> bool {
    match (tgt, src) {
        (_, Val::Poison) => true,
        (Val::Poison, _) => false,
        // undef admits any defined value *of the same type* and undef
        // itself.
        (Val::Undef(a), Val::Undef(b)) => a == b,
        (t, Val::Undef(ty)) => t.is_defined() && inhabits(t, ty),
        (Val::Undef(_), _) => false,
        (Val::Vec(t), Val::Vec(s)) => {
            t.len() == s.len() && t.iter().zip(s).all(|(a, b)| val_refines(a, b))
        }
        (a, b) => a == b,
    }
}

/// Returns `true` if a defined value belongs to `ty` (width check for
/// integers, kind check for pointers).
fn inhabits(v: &Val, ty: &frost_ir::Ty) -> bool {
    match (v, ty) {
        (Val::Int { bits, .. }, frost_ir::Ty::Int(b)) => bits == b,
        (Val::Ptr(_), frost_ir::Ty::Ptr(_)) => true,
        _ => false,
    }
}

/// Returns `true` if bit `tgt` refines bit `src`.
pub fn bit_refines(tgt: Bit, src: Bit) -> bool {
    match (tgt, src) {
        (_, Bit::Poison) => true,
        (Bit::Poison, _) => false,
        (_, Bit::Undef) => true, // Zero, One, Undef all refine Undef
        (a, b) => a == b,
    }
}

/// Returns `true` if memory snapshot `tgt` refines `src` bit-wise.
pub fn mem_refines(tgt: &[Bit], src: &[Bit]) -> bool {
    tgt.len() == src.len() && tgt.iter().zip(src).all(|(a, b)| bit_refines(*a, *b))
}

/// Returns `true` if outcome `tgt` refines outcome `src`.
///
/// `src = UB` is refined by anything. A returning target refines a
/// returning source when the returned value, the final memory, and the
/// observable call trace all refine point-wise; call events must agree
/// on callee and environment-chosen return value, and target arguments
/// must refine source arguments.
pub fn outcome_refines(tgt: &Outcome, src: &Outcome) -> bool {
    match (tgt, src) {
        (_, Outcome::Ub) => true,
        (Outcome::Ub, _) => false,
        (
            Outcome::Ret {
                val: tv,
                mem: tm,
                trace: tt,
            },
            Outcome::Ret {
                val: sv,
                mem: sm,
                trace: st,
            },
        ) => {
            let val_ok = match (tv, sv) {
                (None, None) => true,
                (Some(a), Some(b)) => val_refines(a, b),
                _ => false,
            };
            val_ok
                && mem_refines(tm, sm)
                && tt.len() == st.len()
                && tt.iter().zip(st).all(|(a, b)| {
                    a.callee == b.callee
                        && a.ret == b.ret
                        && a.args.len() == b.args.len()
                        && a.args.iter().zip(&b.args).all(|(x, y)| val_refines(x, y))
                })
        }
    }
}

/// Returns `true` if every target behavior is allowed by the source:
/// either the source may exhibit UB (total freedom), or each target
/// outcome refines some source outcome.
pub fn set_refines(tgt: &OutcomeSet, src: &OutcomeSet) -> bool {
    if src.may_ub() {
        return true;
    }
    tgt.iter()
        .all(|t| src.iter().any(|s| outcome_refines(t, s)))
}

/// The lanes on which `tgt` does not refine `src`: [`set_refines`] on
/// every lane at once, as word operations over the outcome codes, for
/// two sides whose `Ret` outcomes carry refining memories (the caller
/// checks [`mem_refines`] on the two snapshots).
///
/// A target value is justified by the same value, by undef or by
/// poison; undef by undef or poison; poison by poison; `ret void` by
/// `ret void`; UB by nothing. A lane where the source may be UB is
/// free.
///
/// # Panics
///
/// Panics unless both sides have the same lane count and return width.
pub fn lane_violations(tgt: &LaneOutcomes, src: &LaneOutcomes) -> u64 {
    assert_eq!(
        (tgt.lanes(), tgt.ret_bits()),
        (src.lanes(), src.ret_bits()),
        "lane outcomes of different shapes"
    );
    let (t, s) = (|c| tgt.mask(c), |c| src.mask(c));
    let poison = s(LaneOutcomes::POISON);
    let undef = poison | s(LaneOutcomes::UNDEF);
    let mut bad = t(LaneOutcomes::UB)
        | t(LaneOutcomes::POISON) & !poison
        | t(LaneOutcomes::UNDEF) & !undef
        | t(LaneOutcomes::RET_VOID) & !s(LaneOutcomes::RET_VOID);
    for v in 0..LaneOutcomes::VALUES {
        bad |= t(v) & !(s(v) | undef);
    }
    bad & !s(LaneOutcomes::UB)
}

/// The target outcomes not justified by any source outcome (empty iff
/// the set refines). Used for counterexample reporting.
pub fn unjustified<'a>(tgt: &'a OutcomeSet, src: &OutcomeSet) -> Vec<&'a Outcome> {
    if src.may_ub() {
        return Vec::new();
    }
    tgt.iter()
        .filter(|t| !src.iter().any(|s| outcome_refines(t, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::Ty;

    fn ret(v: Val) -> Outcome {
        Outcome::Ret {
            val: Some(v),
            mem: Vec::new(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn poison_is_top() {
        assert!(val_refines(&Val::int(8, 3), &Val::Poison));
        assert!(val_refines(&Val::Undef(Ty::i8()), &Val::Poison));
        assert!(val_refines(&Val::Poison, &Val::Poison));
        assert!(!val_refines(&Val::Poison, &Val::int(8, 3)));
    }

    #[test]
    fn undef_admits_defined_but_not_poison() {
        let u = Val::Undef(Ty::i8());
        assert!(val_refines(&Val::int(8, 9), &u));
        assert!(val_refines(&u, &u));
        assert!(
            !val_refines(&Val::Poison, &u),
            "poison is stronger than undef (§3.4)"
        );
        assert!(!val_refines(&u, &Val::int(8, 9)));
    }

    #[test]
    fn defined_values_refine_only_themselves() {
        assert!(val_refines(&Val::int(8, 3), &Val::int(8, 3)));
        assert!(!val_refines(&Val::int(8, 3), &Val::int(8, 4)));
        assert!(!val_refines(&Val::int(8, 3), &Val::int(16, 3)));
    }

    #[test]
    fn vector_refinement_is_element_wise() {
        let s = Val::Vec(vec![Val::Poison, Val::int(8, 2)]);
        let t = Val::Vec(vec![Val::int(8, 7), Val::int(8, 2)]);
        assert!(val_refines(&t, &s));
        assert!(!val_refines(&s, &t));
    }

    #[test]
    fn refinement_is_reflexive_and_transitive_on_samples() {
        let samples = [
            Val::Poison,
            Val::Undef(Ty::i8()),
            Val::int(8, 0),
            Val::int(8, 255),
            Val::Vec(vec![Val::Poison, Val::int(8, 1)]),
            Val::Vec(vec![Val::Undef(Ty::i8()), Val::int(8, 1)]),
            Val::Vec(vec![Val::int(8, 0), Val::int(8, 1)]),
        ];
        for a in &samples {
            assert!(val_refines(a, a), "reflexive: {a}");
            for b in &samples {
                for c in &samples {
                    if val_refines(a, b) && val_refines(b, c) {
                        assert!(val_refines(a, c), "transitive: {a} ⊑ {b} ⊑ {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn ub_source_allows_everything() {
        let mut src = OutcomeSet::new();
        src.insert(Outcome::Ub);
        let mut tgt = OutcomeSet::new();
        tgt.insert(ret(Val::int(8, 1)));
        tgt.insert(Outcome::Ub);
        assert!(set_refines(&tgt, &src));
    }

    #[test]
    fn target_ub_needs_source_ub() {
        let mut src = OutcomeSet::new();
        src.insert(ret(Val::int(8, 1)));
        let mut tgt = OutcomeSet::new();
        tgt.insert(Outcome::Ub);
        assert!(!set_refines(&tgt, &src));
        assert_eq!(unjustified(&tgt, &src).len(), 1);
    }

    #[test]
    fn narrowing_outcomes_is_refinement() {
        // Source can return 1 or 2; target always returns 1: fine.
        let mut src = OutcomeSet::new();
        src.insert(ret(Val::int(8, 1)));
        src.insert(ret(Val::int(8, 2)));
        let mut tgt = OutcomeSet::new();
        tgt.insert(ret(Val::int(8, 1)));
        assert!(set_refines(&tgt, &src));
        // Widening is not.
        assert!(!set_refines(&src, &tgt));
    }

    /// The outcome set a lane holding `codes` (a bit per
    /// [`LaneOutcomes`] code) stands for, built independently of
    /// [`LaneOutcomes::outcome_set`].
    fn set_of(codes: u16, ret_bits: u32) -> OutcomeSet {
        let ret = |val| Outcome::Ret {
            val,
            mem: Vec::new(),
            trace: Vec::new(),
        };
        let mut set = OutcomeSet::new();
        for c in (0..LaneOutcomes::CODES).filter(|c| codes >> c & 1 == 1) {
            set.insert(match c {
                LaneOutcomes::UB => Outcome::Ub,
                LaneOutcomes::RET_VOID => ret(None),
                LaneOutcomes::POISON => ret(Some(Val::Poison)),
                LaneOutcomes::UNDEF => ret(Some(Val::Undef(Ty::Int(ret_bits)))),
                v => ret(Some(Val::int(ret_bits, v as u128))),
            });
        }
        set
    }

    #[test]
    fn lane_violations_agree_with_set_refines_on_every_lane_pair() {
        use frost_core::CacheEntry;
        use std::sync::Arc;
        let codes = |c: &[usize]| c.iter().fold(0u16, |m, c| m | 1 << c);
        let specials = codes(&[LaneOutcomes::POISON, LaneOutcomes::UNDEF, LaneOutcomes::UB]);
        // Per return shape, the codes a lane can hold: i1/i2/i3 values
        // with poison, undef and UB; `ret void` with UB.
        let shapes = [
            (1, 0b11 | specials),
            (2, 0b1111 | specials),
            (3, 0xff | specials),
            (0, codes(&[LaneOutcomes::RET_VOID, LaneOutcomes::UB])),
        ];
        for (ret_bits, allowed) in shapes {
            // Every subset of the allowed codes, as a 16-bit code word.
            let subsets: Vec<u16> = (0u16..=allowed).filter(|s| s & !allowed == 0).collect();
            let sets: Vec<OutcomeSet> = subsets.iter().map(|&s| set_of(s, ret_bits)).collect();
            let lanes_of = |sets: &[OutcomeSet]| {
                let entry = CacheEntry::Sets(Arc::new(sets.iter().cloned().map(Ok).collect()));
                entry.lane_form(ret_bits).expect("fits the lane form").0
            };
            // 64 sources per lane word; every chunk has the same width.
            let sources: Vec<LaneOutcomes> = sets.chunks(64).map(lanes_of).collect();
            for (chunk, src) in sets.chunks(64).zip(&sources) {
                for (l, set) in chunk.iter().enumerate() {
                    assert_eq!(&src.outcome_set(l, &Vec::new()), set, "lane round trip");
                }
            }
            for t in &sets {
                let tgt = lanes_of(&vec![t.clone(); sources[0].lanes()]);
                for (chunk, src) in sets.chunks(64).zip(&sources) {
                    let bad = lane_violations(&tgt, src);
                    for (l, s) in chunk.iter().enumerate() {
                        assert_eq!(
                            bad >> l & 1 == 0,
                            set_refines(t, s),
                            "i{ret_bits}: target {t} vs source {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bit_refinement() {
        assert!(bit_refines(Bit::One, Bit::Poison));
        assert!(bit_refines(Bit::Zero, Bit::Undef));
        assert!(!bit_refines(Bit::Poison, Bit::Undef));
        assert!(!bit_refines(Bit::Zero, Bit::One));
        assert!(bit_refines(Bit::Undef, Bit::Undef));
    }

    #[test]
    fn trace_mismatch_blocks_refinement() {
        use frost_core::Event;
        let mk = |callee: &str, arg: Val| Outcome::Ret {
            val: None,
            mem: Vec::new(),
            trace: vec![Event {
                callee: callee.into(),
                args: vec![arg],
                ret: None,
            }],
        };
        let mut src = OutcomeSet::new();
        src.insert(mk("use", Val::int(8, 1)));
        let mut tgt = OutcomeSet::new();
        tgt.insert(mk("use", Val::int(8, 2)));
        assert!(!set_refines(&tgt, &src), "different observable argument");
        let mut tgt2 = OutcomeSet::new();
        tgt2.insert(mk("other", Val::int(8, 1)));
        assert!(!set_refines(&tgt2, &src), "different callee");
        // Target passing a defined arg where source passed undef is ok.
        let mut src3 = OutcomeSet::new();
        src3.insert(mk("use", Val::Undef(Ty::i8())));
        let mut tgt3 = OutcomeSet::new();
        tgt3.insert(mk("use", Val::int(8, 5)));
        assert!(set_refines(&tgt3, &src3));
    }
}
