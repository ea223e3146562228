//! Durable campaign checkpoints: the state a killed exhaustive sweep
//! needs to continue exactly where it stopped.
//!
//! A [`CampaignCheckpoint`] captures three things:
//!
//! * the **generator cursor** — the odometer indices, counter and done
//!   flag of [`ExhaustiveFunctions`](crate::ExhaustiveFunctions), so a
//!   resumed sweep regenerates the *next* unchecked function (function
//!   names `fz{counter}` stay stable across restarts);
//! * the **cumulative verdicts** — tallies plus every
//!   [`Violation`] found so far, so the final report of an interrupted
//!   and resumed sweep is byte-identical to an uninterrupted one;
//! * the **shard identity** — which residue class of a `K`-process
//!   campaign this checkpoint belongs to, so
//!   [`CampaignCheckpoint::merge`] can refuse to combine mismatched or
//!   incomplete shard sets.
//!
//! The odometer never revisits a structure and residue-class shards
//! are disjoint, so the checkpoint needs no record of *which*
//! functions were checked: its size is O(cursor + violations), not
//! O(space).
//!
//! ## JSONL schema (the checkpoint contract)
//!
//! One JSON object per line, discriminated by `"kind"`:
//!
//! * line 1 — the header: `kind:"checkpoint"`, `version:3`, the cursor
//!   (`cursor`/`counter`/`done`), the shard identity
//!   (`shards`/`shard_id`), the tallies
//!   (`total`/`changed`/`refined`/`inconclusive`), and the number of
//!   violation lines that follow (`violations`). `counter` is a
//!   decimal string, since JSON numbers cannot hold a full `u64`;
//! * `kind:"violation"` — one per recorded violation, carrying
//!   `index`/`before`/`after`/`counterexample`.
//!
//! [`CampaignCheckpoint::from_jsonl`] reads lines with the shared
//! `frost_telemetry::json` parser and validates them: every line must
//! be a flat object carrying its kind's required keys, the header must
//! be version 3 (older artifacts are refused with their version named),
//! and the violation count must match the header — errors name the
//! first offending line.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use frost_telemetry::json;

use crate::validate::Violation;

/// The resumable state of an exhaustive validation sweep. Produced by
/// `Campaign::run_exhaustive`, serialized with
/// [`save_jsonl`](CampaignCheckpoint::save_jsonl), restored with
/// [`load_jsonl`](CampaignCheckpoint::load_jsonl) and passed back as
/// the `resume` argument. Per-shard checkpoints of a multi-process
/// campaign combine with [`CampaignCheckpoint::merge`].
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignCheckpoint {
    /// Odometer indices of the next function to generate.
    pub cursor: Vec<usize>,
    /// Generator counter of the next function (`fz{counter}`).
    pub counter: u64,
    /// `true` once the space is exhausted — resuming yields nothing.
    pub done: bool,
    /// Process-shard count of the campaign that wrote this checkpoint
    /// (`1` for a whole-space sweep).
    pub shards: usize,
    /// Which residue class (`position % shards`) this checkpoint
    /// covers.
    pub shard_id: usize,
    /// Functions checked so far.
    pub total: usize,
    /// Functions the transform changed, so far.
    pub changed: usize,
    /// Refinements verified, so far.
    pub refined: usize,
    /// Inconclusive checks, so far.
    pub inconclusive: usize,
    /// Every violation found so far, sorted by corpus index.
    pub violations: Vec<Violation>,
}

impl Default for CampaignCheckpoint {
    fn default() -> CampaignCheckpoint {
        CampaignCheckpoint {
            cursor: Vec::new(),
            counter: 0,
            done: false,
            shards: 1,
            shard_id: 0,
            total: 0,
            changed: 0,
            refined: 0,
            inconclusive: 0,
            violations: Vec::new(),
        }
    }
}

impl CampaignCheckpoint {
    /// The checkpoint format version this build writes and reads.
    pub const VERSION: u64 = 3;

    /// Renders the checkpoint as JSONL (header, then violations).
    pub fn to_jsonl(&self) -> String {
        let cursor: Vec<String> = self.cursor.iter().map(usize::to_string).collect();
        let mut out = format!(
            "{{\"kind\":\"checkpoint\",\"version\":{},\"cursor\":[{}],\"counter\":\"{}\",\
             \"done\":{},\"shards\":{},\"shard_id\":{},\"total\":{},\"changed\":{},\
             \"refined\":{},\"inconclusive\":{},\"violations\":{}}}\n",
            Self::VERSION,
            cursor.join(","),
            self.counter,
            self.done,
            self.shards,
            self.shard_id,
            self.total,
            self.changed,
            self.refined,
            self.inconclusive,
            self.violations.len(),
        );
        for v in &self.violations {
            let _ = write!(
                out,
                "{{\"kind\":\"violation\",\"index\":{},\"before\":\"",
                v.index
            );
            json::escape(&mut out, &v.before);
            out.push_str("\",\"after\":\"");
            json::escape(&mut out, &v.after);
            out.push_str("\",\"counterexample\":\"");
            json::escape(&mut out, &v.counterexample);
            out.push_str("\"}\n");
        }
        out
    }

    /// Parses and validates a checkpoint artifact.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending line and why it is
    /// malformed: bad JSON, a missing or mistyped key, an unknown
    /// `kind`, a header of another format version, or a violation
    /// count that disagrees with the header.
    pub fn from_jsonl(text: &str) -> Result<CampaignCheckpoint, String> {
        let mut header: Option<(CampaignCheckpoint, u64)> = None;
        json::for_each_line(text, |obj| {
            let size = |key: &str| {
                usize::try_from(obj.u64(key)?).map_err(|_| format!("'{key}' overflows usize"))
            };
            match obj.str("kind")? {
                "checkpoint" => {
                    if header.is_some() {
                        return Err("duplicate header".into());
                    }
                    let version = obj.u64("version")?;
                    if version != Self::VERSION {
                        return Err(format!(
                            "unsupported checkpoint version {version} (this build reads \
                             version {})",
                            Self::VERSION
                        ));
                    }
                    let cursor = obj.array("cursor")?.iter();
                    let cp = CampaignCheckpoint {
                        cursor: (cursor.map(|v| v.as_u64().and_then(|w| w.try_into().ok())))
                            .collect::<Option<_>>()
                            .ok_or("cursor holds a non-index")?,
                        counter: obj.u64("counter")?,
                        done: obj.bool("done")?,
                        shards: size("shards")?,
                        shard_id: size("shard_id")?,
                        total: size("total")?,
                        changed: size("changed")?,
                        refined: size("refined")?,
                        inconclusive: size("inconclusive")?,
                        violations: Vec::new(),
                    };
                    if cp.shards == 0 || cp.shard_id >= cp.shards {
                        return Err(format!("shard {}/{} out of range", cp.shard_id, cp.shards));
                    }
                    header = Some((cp, obj.u64("violations")?));
                }
                "violation" => {
                    let Some((cp, _)) = header.as_mut() else {
                        return Err("violation before header".into());
                    };
                    cp.violations.push(Violation {
                        index: size("index")?,
                        before: obj.str("before")?.to_owned(),
                        after: obj.str("after")?.to_owned(),
                        counterexample: obj.str("counterexample")?.to_owned(),
                    });
                }
                other => return Err(format!("unknown kind '{other}'")),
            }
            Ok(())
        })?;
        let (cp, want) = header.ok_or("missing checkpoint header")?;
        if cp.violations.len() as u64 != want {
            return Err(format!(
                "header promises {want} violations, found {}",
                cp.violations.len()
            ));
        }
        Ok(cp)
    }

    /// Writes the checkpoint to `path` (atomically: a temp file in the
    /// same directory, then rename), so a kill mid-save leaves either
    /// the old checkpoint or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_jsonl())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; validation failures surface as
    /// [`io::ErrorKind::InvalidData`] with the offending line in the
    /// message.
    pub fn load_jsonl(path: impl AsRef<Path>) -> io::Result<CampaignCheckpoint> {
        let text = std::fs::read_to_string(path)?;
        CampaignCheckpoint::from_jsonl(&text).map_err(io::Error::other)
    }

    /// Merges the per-shard checkpoints of a `K`-process campaign into
    /// one whole-space summary: tallies sum, violations concatenate
    /// and re-sort by corpus index, and the cursor comes from the
    /// furthest-advanced part. The result is marked `shards: 1, shard_id: 0` and is `done` only
    /// when every shard is — a finished merge is byte-identical to the
    /// checkpoint of a single-process sweep of the same space.
    ///
    /// The order of `parts` does not matter.
    ///
    /// # Errors
    ///
    /// Returns a message when `parts` is not a complete, consistent
    /// shard set: empty input, disagreeing `shards` values, a part
    /// whose `shards` does not match the part count, or shard ids that
    /// are not exactly `{0, …, K-1}`.
    pub fn merge(parts: &[CampaignCheckpoint]) -> Result<CampaignCheckpoint, String> {
        let k = parts.len();
        if k == 0 {
            return Err("cannot merge zero checkpoints".into());
        }
        let mut present = vec![false; k];
        for p in parts {
            if p.shards != k {
                return Err(format!(
                    "checkpoint for shard {}/{} merged with {k} part(s)",
                    p.shard_id, p.shards
                ));
            }
            if p.shard_id >= k {
                return Err(format!("shard id {} out of range 0..{k}", p.shard_id));
            }
            if present[p.shard_id] {
                return Err(format!("duplicate checkpoint for shard {}", p.shard_id));
            }
            present[p.shard_id] = true;
        }
        // All ids in range, none duplicated, count matches: the set is
        // exactly {0, …, K-1}.
        let furthest = parts
            .iter()
            .max_by_key(|p| p.counter)
            .expect("parts is non-empty");
        let mut merged = CampaignCheckpoint {
            cursor: furthest.cursor.clone(),
            counter: furthest.counter,
            done: parts.iter().all(|p| p.done),
            ..CampaignCheckpoint::default()
        };
        for p in parts {
            merged.total += p.total;
            merged.changed += p.changed;
            merged.refined += p.refined;
            merged.inconclusive += p.inconclusive;
            merged.violations.extend(p.violations.iter().cloned());
        }
        merged.violations.sort_by_key(|v| v.index);
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignCheckpoint {
        CampaignCheckpoint {
            cursor: vec![12, 0, 345],
            counter: u64::MAX - 7,
            done: false,
            shards: 4,
            shard_id: 2,
            total: 99,
            changed: 40,
            refined: 97,
            inconclusive: 1,
            violations: vec![Violation {
                index: 41,
                before: "define i2 @fz41() {\n  \"quoted\" \\ tab\t\n}".into(),
                after: "define i2 @fz41() {}".into(),
                counterexample: "args (0, poison): src ret 1, tgt UB".into(),
            }],
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let cp = sample();
        let text = cp.to_jsonl();
        let back = CampaignCheckpoint::from_jsonl(&text).expect("round trip validates");
        assert_eq!(back, cp);
        // The u64 counter survives above 2^53 (carried as a string).
        assert_eq!(back.counter, u64::MAX - 7);
        assert_eq!((back.shards, back.shard_id), (4, 2));
    }

    #[test]
    fn save_and_load_through_a_file() {
        let dir = std::env::temp_dir().join("frost-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.jsonl");
        let cp = sample();
        cp.save_jsonl(&path).unwrap();
        assert_eq!(CampaignCheckpoint::load_jsonl(&path).unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_rejects_malformed_artifacts() {
        assert!(CampaignCheckpoint::from_jsonl("").is_err(), "no header");
        assert!(
            CampaignCheckpoint::from_jsonl("not json\n").is_err(),
            "bad line"
        );
        let violation = sample().to_jsonl().lines().nth(1).unwrap().to_owned();
        assert!(
            CampaignCheckpoint::from_jsonl(&violation).is_err(),
            "body before header"
        );
        let mut text = sample().to_jsonl();
        text.push_str(&violation);
        assert!(
            CampaignCheckpoint::from_jsonl(&text)
                .unwrap_err()
                .contains("violations"),
            "count mismatch is caught"
        );
        let trailing = sample()
            .to_jsonl()
            .replace("\"done\":false", "\"done\":false} x");
        assert!(CampaignCheckpoint::from_jsonl(&trailing).is_err());
    }

    #[test]
    fn unknown_kinds_and_versions_are_rejected() {
        let base = sample();
        // Versions 1 and 2 carried a structural dedup set; they are
        // refused by number, like a future version.
        for version in [1, 2, 9] {
            let other =
                (base.to_jsonl()).replace("\"version\":3", &format!("\"version\":{version}"));
            let err = CampaignCheckpoint::from_jsonl(&other).unwrap_err();
            assert!(err.contains(&format!("version {version}")), "{err}");
        }
        let mut text = base.to_jsonl();
        text.push_str("{\"kind\":\"mystery\"}\n");
        assert!(CampaignCheckpoint::from_jsonl(&text)
            .unwrap_err()
            .contains("unknown kind"));
    }

    fn shard_part(shards: usize, shard_id: usize) -> CampaignCheckpoint {
        CampaignCheckpoint {
            cursor: vec![shard_id],
            counter: 10 + shard_id as u64,
            done: true,
            shards,
            shard_id,
            total: 5,
            changed: 2,
            refined: 4,
            inconclusive: 1,
            violations: vec![Violation {
                index: 100 - shard_id,
                before: String::new(),
                after: String::new(),
                counterexample: String::new(),
            }],
        }
    }

    #[test]
    fn merge_sums_sorts_and_unions() {
        let parts = [shard_part(2, 1), shard_part(2, 0)];
        let m = CampaignCheckpoint::merge(&parts).expect("complete shard set");
        assert_eq!((m.shards, m.shard_id), (1, 0));
        assert!(m.done);
        assert_eq!(m.total, 10);
        assert_eq!(m.changed, 4);
        // Violations union and re-sort by corpus index regardless of
        // part order.
        let idx: Vec<usize> = m.violations.iter().map(|v| v.index).collect();
        assert_eq!(idx, vec![99, 100]);
        // Cursor comes from the furthest-advanced shard.
        assert_eq!(m.counter, 11);
        assert_eq!(m.cursor, vec![1]);
        // Order-independent.
        let swapped = CampaignCheckpoint::merge(&[shard_part(2, 0), shard_part(2, 1)]).unwrap();
        assert_eq!(m, swapped);
    }

    #[test]
    fn merge_rejects_incomplete_or_mismatched_shard_sets() {
        assert!(CampaignCheckpoint::merge(&[]).is_err(), "empty");
        assert!(
            CampaignCheckpoint::merge(&[shard_part(2, 0)]).is_err(),
            "missing shard 1"
        );
        assert!(
            CampaignCheckpoint::merge(&[shard_part(2, 0), shard_part(2, 0)]).is_err(),
            "duplicate shard"
        );
        assert!(
            CampaignCheckpoint::merge(&[shard_part(2, 0), shard_part(3, 1)]).is_err(),
            "disagreeing shard counts"
        );
        let unfinished = CampaignCheckpoint {
            done: false,
            ..shard_part(2, 1)
        };
        let m = CampaignCheckpoint::merge(&[shard_part(2, 0), unfinished]).unwrap();
        assert!(!m.done, "merge of an unfinished shard is not done");
    }
}
