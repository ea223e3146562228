//! Host-speed calibration.
//!
//! A shared host drifts slowly: the same single-threaded sweep runs
//! 20–30% faster or slower from one minute to the next, while the
//! quartiles inside one run stay within a few percent. Every timed
//! figure is therefore measured next to a fixed reference kernel — code
//! of this benchmark, never of the program under test — and scaled by
//! how long the kernel took at that moment:
//!
//! a duration `d` is reported as `d × NOMINAL_KERNEL_NS / kernel_ns`,
//! and rates are counts over calibrated durations.
//!
//! Calibrated figures therefore read as if measured on a host whose
//! kernel takes exactly [`NOMINAL_KERNEL_NS`].

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host, in nanoseconds: a 2-vCPU
/// "Intel(R) Xeon(R) Processor" (nproc = 2) shared with other tenants.
pub const NOMINAL_KERNEL_NS: f64 = 1_400_000.0;

/// Kernel runs per measurement; the median is kept.
const REPS: usize = 3;

/// The reference kernel: a fixed mix of what the measured code spends
/// its time on — an interpreter dispatch loop, small allocations,
/// hashing, pointer chasing over a table larger than L1, and a sort.
/// Deterministic; returns a checksum so the work cannot be optimized
/// away.
pub fn kernel() -> u64 {
    interpret(black_box(20_000)) ^ mixed()
}

/// One instruction of the kernel's register machine.
#[derive(Clone, Copy)]
enum Op {
    Load(usize, usize),
    Store(usize, usize),
    MulAdd(usize, usize, usize),
    XorShr(usize, usize, u32),
    Inc(usize),
    Dec(usize),
    AddIfOdd(usize, usize, usize),
    Jnz(usize, usize),
}

/// Runs a fixed eight-instruction loop `iters` times on a register
/// machine with 256 words of memory: the dispatch-heavy shape of the
/// plan machine and the backend simulator.
fn interpret(iters: u64) -> u64 {
    use Op::*;
    let program = black_box([
        Load(1, 2),
        MulAdd(3, 1, 4),
        XorShr(5, 3, 7),
        Store(3, 5),
        AddIfOdd(6, 3, 7),
        Inc(2),
        Dec(0),
        Jnz(0, 0),
    ]);
    let mut r = [0u64; 8];
    r[0] = iters;
    r[4] = 0x9e37_79b9;
    let mut mem = [0u64; 256];
    let mut pc = 0;
    while pc < program.len() {
        pc = match program[pc] {
            Load(d, a) => {
                r[d] = mem[(r[a] & 255) as usize];
                pc + 1
            }
            Store(a, v) => {
                mem[(r[a] & 255) as usize] = r[v];
                pc + 1
            }
            MulAdd(d, a, b) => {
                r[d] = r[a].wrapping_mul(r[b]).wrapping_add(r[5]);
                pc + 1
            }
            XorShr(d, a, k) => {
                r[d] ^= r[a] >> k;
                pc + 1
            }
            AddIfOdd(d, a, e) => {
                if r[a] & 1 == 1 {
                    r[d] += 1;
                } else {
                    r[e] = r[e].wrapping_add(r[a]);
                }
                pc + 1
            }
            Inc(d) => {
                r[d] = r[d].wrapping_add(1);
                pc + 1
            }
            Dec(d) => {
                r[d] = r[d].wrapping_sub(1);
                pc + 1
            }
            Jnz(c, t) => {
                if r[c] != 0 {
                    t
                } else {
                    pc + 1
                }
            }
        };
    }
    r[5] ^ r[6] ^ r[7]
}

/// Allocation, pointer chasing, hashing and sorting.
fn mixed() -> u64 {
    const N: usize = 1 << 14;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // A random cyclic permutation, then a walk along it.
    let mut perm: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        let j = (next() % i as u64) as usize;
        perm.swap(i, j);
    }
    let mut at = 0u32;
    let mut acc = 0u64;
    for _ in 0..N {
        at = perm[at as usize];
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(at));
    }
    // Many short-lived small allocations.
    let mut boxes: Vec<Vec<u8>> = Vec::with_capacity(1024);
    for i in 0..1024u64 {
        let len = 8 + (next() % 56) as usize;
        let mut v = vec![(i ^ acc) as u8; len];
        v[len - 1] = next() as u8;
        boxes.push(v);
    }
    acc ^= boxes.iter().map(|b| u64::from(b[b.len() - 1])).sum::<u64>();
    // Hash-map inserts and probes.
    let mut map: HashMap<u64, u32> = HashMap::with_capacity(N / 4);
    for i in 0..(N / 4) as u32 {
        *map.entry(next() % 2048).or_insert(0) += i;
    }
    for k in 0..2048u64 {
        acc = acc.wrapping_add(u64::from(map.get(&k).copied().unwrap_or(1)));
    }
    // A sort of the permutation's image.
    let mut keys: Vec<u64> = perm
        .iter()
        .map(|&p| u64::from(p).wrapping_mul(next()))
        .collect();
    keys.sort_unstable();
    black_box(acc ^ keys[N / 2])
}

/// Times the kernel [`REPS`] times and returns the median, in ns.
pub fn time_kernel() -> f64 {
    let mut t = [0f64; REPS];
    for slot in &mut t {
        let start = Instant::now();
        black_box(kernel());
        *slot = start.elapsed().as_nanos() as f64;
    }
    t.sort_by(f64::total_cmp);
    t[REPS / 2]
}

/// Scales a duration measured while the kernel took `kernel_ns`.
pub fn duration(raw: f64, kernel_ns: f64) -> f64 {
    raw * NOMINAL_KERNEL_NS / kernel_ns
}
