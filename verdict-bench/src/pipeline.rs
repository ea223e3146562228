//! The `pipeline` workload: every `frost_workloads` program from
//! mini-C source to a simulated result on machine1, in Fixed mode.
//!
//! Per program: `cc::parse_program` → `cc::compile` → print and
//! `parse_module` (the IR is handed over as text, as
//! `clang -emit-llvm | opt` does) → O2 → `select_module` → `allocate`
//! → `module_size` → `Simulator::run`. Compile latency, source to
//! encoded MIR, is timed in a compile-only pass of its own.

use std::time::Instant;

use frost_backend::{allocate, compile_module, module_size, select_module, CostModel, Simulator};
use frost_backend::{MModule, MEM_BASE};
use frost_cc::{compile, parse_program, CodegenOptions};
use frost_core::{run_concrete, Limits, Memory, Outcome, Semantics, Val};
use frost_ir::{module_to_string, parse_module};
use frost_opt::{o2_pipeline, PassManager, PipelineMode};
use frost_rng::SmallRng;
use frost_workloads::{all_workloads, ArgSpec, Workload};

use crate::expected;
use crate::meter::Meter;
use crate::trace::{Layer, Tracer};

/// Programs small enough for the `frost_core` interpreter to re-run
/// (the same set `tests/end_to_end.rs` cross-checks).
const INTERPRETED: &[&str] = &[
    "fib",
    "gcd_chain",
    "josephus",
    "shootout_nestedloop",
    "ackermann",
];

struct Program {
    w: Workload,
    args: Vec<u64>,
    memory: Vec<u8>,
    expected: Option<u64>,
}

/// The deterministic outputs of one pass, summed over its programs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassTotals {
    pub programs: usize,
    pub wrong: usize,
    pub sim_cycles: u64,
    pub sim_insts: u64,
    pub obj_bytes: u64,
    pub mir_insts: u64,
    pub ir_insts_out: u64,
    pub spilled: u64,
}

/// A prepared pipeline workload.
pub struct Pipeline {
    programs: Vec<Program>,
    o2: PassManager,
    opts: CodegenOptions,
}

/// Runs `f` in a span when tracing, bare otherwise.
fn span<R>(tr: Option<&Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(layer, f),
        None => f(),
    }
}

impl Pipeline {
    /// Builds every program with its inputs in an order permuted by
    /// `seed`, and compiles each once as a warm-up.
    pub fn setup(seed: u64) -> Pipeline {
        let mut programs: Vec<Program> = all_workloads()
            .into_iter()
            .map(|w| Program {
                args: w
                    .args
                    .iter()
                    .map(|a| match a {
                        ArgSpec::Int(v) => *v,
                        ArgSpec::Ptr(off) => MEM_BASE + u64::from(*off),
                    })
                    .collect(),
                memory: w.init_memory(),
                expected: expected::program_result(w.name),
                w,
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..programs.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            programs.swap(i, j);
        }
        let mode = PipelineMode::Fixed;
        let p = Pipeline {
            programs,
            o2: o2_pipeline(mode),
            opts: CodegenOptions {
                freeze_bitfields: mode.uses_freeze(),
                emit_wrap_flags: true,
            },
        };
        // Warm-up: the first compile of each program pages in the
        // compiler paths it uses.
        for program in &p.programs {
            p.compile(program, None);
        }
        p
    }

    /// Source to register-allocated, encoded MIR. Returns the module,
    /// IR instructions after O2, spilled intervals and object bytes;
    /// `None` if any stage rejects the program.
    fn compile(&self, p: &Program, tr: Option<&Tracer>) -> Option<(MModule, u64, u64, u64)> {
        let ast = span(tr, Layer::CcParse, || parse_program(&p.w.source)).ok()?;
        let module = span(tr, Layer::CcIrgen, || compile(&ast, &self.opts)).ok()?;
        let mut module = span(tr, Layer::IrText, || {
            parse_module(&module_to_string(&module))
        })
        .ok()?;
        span(tr, Layer::OptO2, || self.o2.run(&mut module));
        let ir_insts = module.inst_count();
        let mut mm = span(tr, Layer::Isel, || select_module(&module)).ok()?;
        let spilled = span(tr, Layer::Regalloc, || {
            mm.functions
                .iter_mut()
                .map(|f| u64::from(allocate(f).spilled))
                .sum()
        });
        let bytes = span(tr, Layer::Encode, || module_size(&mm));
        Some((mm, ir_insts as u64, spilled, bytes as u64))
    }

    /// One pass over every program. With a meter, closes segments
    /// between programs; with a tracer, records spans.
    pub fn pass(&self, mut meter: Option<&mut Meter>, tr: Option<&Tracer>) -> PassTotals {
        let mut t = PassTotals::default();
        if let Some(m) = meter.as_deref_mut() {
            m.begin_pass();
        }
        for (i, p) in self.programs.iter().enumerate() {
            if let Some(tr) = tr {
                tr.set_trace(i as u32);
            }
            let ok = span(tr, Layer::Program, || {
                let Some((mm, ir_insts, spilled, bytes)) = self.compile(p, tr) else {
                    return false;
                };
                t.ir_insts_out += ir_insts;
                t.spilled += spilled;
                t.obj_bytes += bytes;
                t.mir_insts += mm
                    .functions
                    .iter()
                    .flat_map(|f| &f.blocks)
                    .map(|b| b.insts.len() as u64)
                    .sum::<u64>();
                let run = span(tr, Layer::Sim, || {
                    let mut sim = Simulator::new(&mm, CostModel::machine1(), p.memory.len());
                    sim.mem.copy_from_slice(&p.memory);
                    sim.run(p.w.entry, &p.args)
                });
                let Ok(run) = run else { return false };
                t.sim_cycles += run.cycles;
                t.sim_insts += run.insts;
                p.expected.is_some() && run.ret == p.expected
            });
            t.programs += 1;
            if !ok {
                t.wrong += 1;
            }
            if let Some(m) = meter.as_deref_mut() {
                m.tick(i + 1);
            }
        }
        if let Some(m) = meter {
            m.close(self.programs.len());
        }
        t
    }

    /// One compile-only pass: each program from source to encoded MIR,
    /// timed, one unit per program.
    pub fn compile_pass(&self, meter: &mut Meter) {
        meter.begin_pass();
        for (i, p) in self.programs.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(self.compile(p, None));
            meter.compile_sample(start.elapsed().as_nanos() as u64);
            meter.tick(i + 1);
        }
        meter.close(self.programs.len());
    }

    /// The committed results' own cross-checks, run once outside the
    /// timed window: every program under the Legacy pipeline, and the
    /// small ones under the `frost_core` interpreter, must give the
    /// committed value. Returns the names that disagree.
    pub fn cross_check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let legacy = o2_pipeline(PipelineMode::Legacy);
        let legacy_opts = CodegenOptions {
            freeze_bitfields: PipelineMode::Legacy.uses_freeze(),
            emit_wrap_flags: true,
        };
        for p in &self.programs {
            let ret = p.w.compile(&legacy_opts).ok().and_then(|mut m| {
                legacy.run(&mut m);
                let mm = compile_module(&m).ok()?;
                let mut sim = Simulator::new(&mm, CostModel::machine1(), p.memory.len());
                sim.mem.copy_from_slice(&p.memory);
                sim.run(p.w.entry, &p.args).ok().map(|r| r.ret)
            });
            if ret.is_none() || ret.flatten() != p.expected {
                bad.push(format!("{} (legacy)", p.w.name));
            }
            if INTERPRETED.contains(&p.w.name)
                && (p.w.mem_seed != 0
                    || interpret(p, &self.opts) != p.expected.map(|v| v & 0xffff_ffff))
            {
                bad.push(format!("{} (interpreter)", p.w.name));
            }
        }
        bad
    }
}

/// The program's 32-bit result under the `frost_core` interpreter, or
/// `None` if it does not return an integer within the step limit.
fn interpret(p: &Program, opts: &CodegenOptions) -> Option<u64> {
    let mut module = p.w.compile(opts).ok()?;
    o2_pipeline(PipelineMode::Fixed).run(&mut module);
    let vals: Vec<Val> =
        p.w.args
            .iter()
            .map(|a| match a {
                ArgSpec::Int(v) => Val::int(32, u128::from(*v)),
                ArgSpec::Ptr(off) => Val::ptr(Memory::BASE + off),
            })
            .collect();
    let limits = Limits {
        max_steps: 50_000_000,
        max_call_depth: 128,
        ..Limits::default()
    };
    let mem = Memory::zeroed(p.w.mem_bytes);
    let (outcome, _) = run_concrete(
        &module,
        p.w.entry,
        &vals,
        &mem,
        Semantics::proposed(),
        limits,
    )
    .ok()?;
    match outcome {
        Outcome::Ret { val: Some(v), .. } => v.as_int().map(|x| x as u64 & 0xffff_ffff),
        _ => None,
    }
}
