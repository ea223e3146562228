//! Calibrated timing for the untraced runs.
//!
//! A pass is cut into segments of about [`SEGMENT_SECS`]; the reference
//! kernel runs at every segment boundary, outside the segment's own
//! time, and each segment is calibrated by the mean of the kernel
//! timings on either side of it (see [`crate::calib`]). Throughput is
//! the verdicts of every pass over their summed calibrated time, so it
//! does not depend on where the segment boundaries fall.
//!
//! Compile latencies are recorded per unit of work between ticks (one
//! program, or a group of sweep functions), whose mean is kept. Units
//! are the same work in every pass, so each unit's latency is its
//! median over the passes.

use std::time::Instant;

use crate::{calib, stats};

/// Target segment length.
pub const SEGMENT_SECS: f64 = 0.25;

/// Calibrated totals of one run.
pub struct Meter {
    seg_start: Instant,
    seg_done: usize,
    kernel_prev: f64,
    /// Raw compile samples since the last tick.
    pending: Vec<u64>,
    /// Index of the next unit in the pass.
    unit: usize,
    /// Raw compile means of the open segment's units, by unit index.
    unit_means: Vec<(usize, f64)>,
    /// Calibrated compile latencies in ms, by unit index, one per pass.
    units: Vec<Vec<f64>>,
    /// Verdicts of every closed segment.
    pub verdicts: usize,
    /// Calibrated seconds of every closed segment.
    pub secs: f64,
    /// Raw kernel timings, in ns.
    pub kernels: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        let k = calib::time_kernel();
        Meter {
            seg_start: Instant::now(),
            seg_done: 0,
            kernel_prev: k,
            pending: Vec::new(),
            unit: 0,
            unit_means: Vec::new(),
            units: Vec::new(),
            verdicts: 0,
            secs: 0.0,
            kernels: vec![k],
        }
    }

    /// Starts a pass: the next segment begins now, at 0 verdicts.
    pub fn begin_pass(&mut self) {
        self.pending.clear();
        self.unit_means.clear();
        self.unit = 0;
        self.seg_done = 0;
        self.seg_start = Instant::now();
    }

    /// Records one compile latency, in raw ns.
    pub fn compile_sample(&mut self, ns: u64) {
        self.pending.push(ns);
    }

    /// Called between units of work with the pass's verdict count so
    /// far; closes the segment once it is long enough.
    pub fn tick(&mut self, done: usize) {
        self.end_unit();
        if self.seg_start.elapsed().as_secs_f64() >= SEGMENT_SECS {
            self.close(done);
        }
    }

    fn end_unit(&mut self) {
        if !self.pending.is_empty() {
            let mean = self.pending.iter().sum::<u64>() as f64 / self.pending.len() as f64;
            self.unit_means.push((self.unit, mean));
            self.pending.clear();
            self.unit += 1;
        }
    }

    /// Closes the current segment at `done` verdicts into the pass.
    pub fn close(&mut self, done: usize) {
        let raw = self.seg_start.elapsed().as_nanos() as f64;
        self.end_unit();
        let k = calib::time_kernel();
        let kernel = (self.kernel_prev + k) / 2.0;
        self.verdicts += done - self.seg_done;
        self.secs += calib::duration(raw, kernel) / 1e9;
        for (i, ns) in self.unit_means.drain(..) {
            if self.units.len() <= i {
                self.units.resize(i + 1, Vec::new());
            }
            self.units[i].push(calib::duration(ns, kernel) / 1e6);
        }
        self.kernels.push(k);
        self.kernel_prev = k;
        self.seg_done = done;
        self.seg_start = Instant::now();
    }

    /// Calibrated verdicts per second over every closed segment.
    pub fn rate(&self) -> f64 {
        if self.secs > 0.0 {
            self.verdicts as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Each unit's calibrated compile latency in ms: its median over
    /// the passes.
    pub fn unit_latencies_ms(&self) -> Vec<f64> {
        self.units
            .iter()
            .filter(|u| !u.is_empty())
            .map(|u| stats::median(u))
            .collect()
    }
}
