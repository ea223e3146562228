//! In-memory spans around the calls this benchmark makes into each
//! layer's public entry points.
//!
//! Every span has a name (its [`Layer`]), a start, an end, a parent
//! span, and the id of the verdict or program it belongs to. A layer's
//! self time is its span's duration minus the part covered by its
//! child spans; it is accumulated as spans close, so the totals stay
//! exact however many spans are kept. The first [`KEEP_SPANS`] spans
//! are kept in memory and written out by [`Tracer::write_jsonl`] once
//! the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept in memory for the written trace.
const KEEP_SPANS: usize = 50_000;

/// Id meaning "no parent".
const NO_SPAN: u32 = u32::MAX;

macro_rules! layers {
    ($($v:ident => $name:literal,)*) => {
        /// The span names: one per layer boundary the benchmark calls
        /// across, plus the per-verdict and per-program roots.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Layer { $($v,)* }

        impl Layer {
            pub const ALL: &'static [Layer] = &[$(Layer::$v,)*];

            pub fn name(self) -> &'static str {
                match self { $(Layer::$v => $name,)* }
            }
        }
    };
}

layers! {
    Campaign => "fuzz.campaign",
    Gen => "fuzz.gen",
    Opt => "opt",
    Fingerprint => "ir.fingerprint",
    Inputs => "refine.inputs",
    PlanCompile => "core.plan.compile",
    BitsliceLower => "core.bitslice.lower",
    BitsliceEval => "core.bitslice.eval",
    PlanEval => "core.plan.eval",
    Compare => "refine.compare",
    CheckpointSave => "fuzz.checkpoint.save",
    CheckpointLoad => "fuzz.checkpoint.load",
    Program => "pipeline.program",
    CcParse => "cc.parse",
    CcIrgen => "cc.irgen",
    IrText => "ir.text",
    OptO2 => "opt.o2",
    Isel => "backend.isel",
    Regalloc => "backend.regalloc",
    Encode => "backend.encode",
    Sim => "backend.sim",
}

/// Calls and times of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub self_ns: u64,
    pub incl_ns: u64,
}

struct SpanRec {
    id: u32,
    parent: u32,
    trace: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u32,
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

struct Inner {
    next_id: u32,
    trace: u32,
    stack: Vec<Open>,
    spans: Vec<SpanRec>,
    dropped: u64,
    totals: Vec<Totals>,
}

/// A single-threaded span recorder.
pub struct Tracer {
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            inner: RefCell::new(Inner {
                next_id: 0,
                trace: 0,
                stack: Vec::new(),
                spans: Vec::with_capacity(KEEP_SPANS),
                dropped: 0,
                totals: vec![Totals::default(); Layer::ALL.len()],
            }),
        }
    }

    /// Sets the verdict or program id stamped on the spans that follow.
    pub fn set_trace(&self, id: u32) {
        self.inner.borrow_mut().trace = id;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_id;
            inner.next_id = id.wrapping_add(1);
            let start_ns = self.now();
            inner.stack.push(Open {
                id,
                layer,
                start_ns,
                child_ns: 0,
            });
        }
        let r = f();
        let end_ns = self.now();
        let mut inner = self.inner.borrow_mut();
        let open = inner.stack.pop().expect("span stack underflow");
        let dur = end_ns - open.start_ns;
        let t = &mut inner.totals[layer as usize];
        t.calls += 1;
        t.incl_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        let parent = match inner.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => NO_SPAN,
        };
        if inner.spans.len() < KEEP_SPANS {
            let trace = inner.trace;
            inner.spans.push(SpanRec {
                id: open.id,
                parent,
                trace,
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            inner.dropped += 1;
        }
        r
    }

    /// The accumulated calls and times of `layer`.
    pub fn totals(&self, layer: Layer) -> Totals {
        self.inner.borrow().totals[layer as usize]
    }

    /// Self time summed over every layer, in ns.
    pub fn self_ns_all(&self) -> u64 {
        self.inner.borrow().totals.iter().map(|t| t.self_ns).sum()
    }

    /// Writes the kept spans as JSONL: a header line, then one line
    /// per span in closing order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"meta\",\"kept\":{},\"dropped\":{}}}",
            inner.spans.len(),
            inner.dropped
        );
        for s in &inner.spans {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.trace,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
