//! Known answers, checked on every run.

use crate::sweep::{Domain, Summary, GUARD3_SAMPLE};

/// Whether a pass's tallies equal the committed known answer. The
/// exhaustive sweeps must reproduce their whole summary line; the
/// `guard3` sample depends on the seed, so only its size and its clean
/// verdicts are fixed.
pub fn sweep_ok(domain: Domain, s: &Summary) -> bool {
    match domain {
        Domain::Arith2 => {
            s.to_string()
                == "checked=429723 changed=294568 refined=429723 violations=0 inconclusive=0"
        }
        Domain::Mem3 => {
            s.to_string() == "checked=1541 changed=1067 refined=1541 violations=0 inconclusive=0"
        }
        Domain::Guard3 => {
            s.checked == GUARD3_SAMPLE
                && s.refined == GUARD3_SAMPLE
                && s.violations == 0
                && s.inconclusive == 0
        }
    }
}

/// The committed return value of each `pipeline` program on machine1.
/// Each was produced by the Fixed pipeline and agrees with the Legacy
/// pipeline, and — for the programs the interpreter can afford — with
/// the `frost_core` interpreter; the benchmark re-checks both on every
/// run.
pub fn program_result(name: &str) -> Option<u64> {
    PROGRAM_RESULTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
}

const PROGRAM_RESULTS: &[(&str, u64)] = &[
    ("ackermann", 15),
    ("adler32", 1_627_719_904),
    ("astar", 169),
    ("bitcount", 8_086),
    ("bubblesort", 4_102_861_406),
    ("bzip2", 1_159_744),
    ("collatz", 143),
    ("crc32", 1_054_530_506),
    ("dealII", 9_642_839),
    ("dotproduct", 83_922_315_080),
    ("fannkuch", 18),
    ("fib", 1_597),
    ("gcc", 408_775),
    ("gcd_chain", 5_642),
    ("gobmk", 4_620),
    ("gzip", 3_268_861_028),
    ("h264ref", 3_414_720),
    ("hanoi", 16_383),
    ("histogram", 48),
    ("hmmer", 1_983),
    ("isqrt_sum", 108_045),
    ("josephus", 16_549),
    ("lame", 793),
    ("lbm", 284_055_054),
    ("libquantum", 2_147_483_648),
    ("matrix", 177_039),
    ("mcf", 230_258),
    ("milc", 3_112_245_539),
    ("namd", 483),
    ("nbody_fixed", 73_538),
    ("oggenc", 15_383_261),
    ("omnetpp", 3_150_871),
    ("perlbench", 1_181_932_715),
    ("popcnt_table", 16_323),
    ("povray", 2_575),
    ("quicksort", 0),
    ("rle", 8_166),
    ("shellsort", 651_529_724),
    ("shootout_nestedloop", 20_736),
    ("sieve", 564),
    ("sjeng", 1_917),
    ("soplex", 2_939),
    ("spectral_fixed", 1_838_632),
    ("sphinx3", 18_446_744_073_708_992_865),
    ("sqlite3", 404),
    ("stanford_queens", 276),
    ("strreverse", 16_186_386),
    ("tcc", 476_461),
    ("xalancbmk", 3),
];
