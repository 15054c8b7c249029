//! Fixed reference work that measures how fast the host runs right now.
//!
//! On a shared virtual machine the speed of a core drifts by tens of
//! percent within seconds and between minutes (other tenants share the
//! physical cores, caches and memory). A wall time measured at one moment
//! is then not comparable with one measured a minute later: on a 2-vCPU
//! x86-64 VM the median wall time of ten consecutive runs moved by 10–16 %
//! (coefficient of variation) from one window to the next. The benchmark
//! therefore times this probe between consecutive runs and reports times
//! at a reference host speed:
//!
//! `normalized = wall / host_factor`, with `host_factor = Σ wᵢ · tᵢ / refᵢ`
//!
//! over the probe's three parts, where `tᵢ` is the part's mean time in
//! the probes right before and after the run and `refᵢ` its time on the
//! reference host (a quiet period of that VM). The parts load the core
//! differently, and contention slows them by different amounts:
//!
//! * `row`: QAP-like swap deltas that stream matrix rows through
//!   floating-point arithmetic (compute- and bandwidth-bound);
//! * `gather`: placement-like half-perimeter updates that gather cell
//!   positions through net and pin index lists;
//! * `chase`: a dependent pointer chase through 256 KiB (cache-latency
//!   bound).
//!
//! Each workload weights the parts by a [`Mix`] fitted to how its wall
//! time followed them (see `README.md`): with the fitted mix the window
//! medians moved by 2–3 % instead of 10–16 %.
//!
//! The probe is the benchmark's own code and never calls the library, so
//! a change to the library moves the normalized time exactly as it moves
//! the wall time at a fixed host speed.

use std::hint::black_box;
use std::time::Instant;

/// Weights of the probe's parts (`row`, `gather`, `chase`) in the host
/// factor; they sum to 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix(pub [f64; 3]);

/// Seconds of each part on the reference host.
const REFERENCE_S: [f64; 3] = [0.0028, 0.0036, 0.0100];

/// QAP-like part: dimension and swap deltas per probe.
const N: usize = 256;
const ROW_PASSES: usize = 8_000;
/// Placement-like part: cells, nets, pins per net and swaps per probe.
const CELLS: usize = 1_500;
const NETS: usize = 2_000;
const PINS: usize = 4;
const GATHER_PASSES: usize = 30_000;
/// Pointer-chase part: ring length (`u32` entries) and steps per probe.
const RING: usize = 65_536;
const CHASE_STEPS: usize = 2_000_000;

/// The probe's data: built once, reused by every [`Probe::time`].
pub struct Probe {
    flow: Vec<f64>,
    dist: Vec<f64>,
    loc: Vec<usize>,
    x: Vec<f64>,
    y: Vec<f64>,
    net_pins: Vec<[u32; PINS]>,
    cell_nets: Vec<Vec<u32>>,
    ring: Vec<u32>,
    state: u64,
}

/// One xorshift step.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Probe {
    /// Build the probe's fixed data (the same in every process).
    pub fn new() -> Probe {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: usize| (xorshift(&mut state) % m as u64) as usize;
        let flow = (0..N * N).map(|_| next(1000) as f64 * 0.01).collect();
        let dist = (0..N * N).map(|_| next(1000) as f64 * 0.01).collect();
        let x = (0..CELLS).map(|_| next(4096) as f64).collect();
        let y = (0..CELLS).map(|_| next(4096) as f64).collect();
        let mut cell_nets = vec![Vec::new(); CELLS];
        let net_pins: Vec<[u32; PINS]> = (0..NETS)
            .map(|net| {
                let pins = [0; PINS].map(|_| next(CELLS) as u32);
                for &c in &pins {
                    cell_nets[c as usize].push(net as u32);
                }
                pins
            })
            .collect();
        // One random cycle through every slot, so the chase visits all.
        let mut order: Vec<u32> = (0..RING as u32).collect();
        for i in (1..RING).rev() {
            order.swap(i, next(i + 1));
        }
        let mut ring = vec![0; RING];
        for i in 0..RING {
            ring[order[i] as usize] = order[(i + 1) % RING];
        }
        Probe {
            flow,
            dist,
            loc: (0..N).collect(),
            x,
            y,
            net_pins,
            cell_nets,
            ring,
            state,
        }
    }

    fn pick(&mut self, m: usize) -> usize {
        (xorshift(&mut self.state) % m as u64) as usize
    }

    fn row_part(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..ROW_PASSES {
            let (a, b) = (self.pick(N), self.pick(N));
            let (la, lb) = (self.loc[a], self.loc[b]);
            let mut delta = 0.0;
            for k in 0..N {
                let lk = self.loc[k];
                delta += (self.flow[a * N + k] - self.flow[b * N + k])
                    * (self.dist[lb * N + lk] - self.dist[la * N + lk]);
            }
            if delta < 0.0 {
                self.loc.swap(a, b);
            }
            acc += delta;
        }
        acc
    }

    /// Half-perimeter wirelength of the nets on cells `a` and `b`.
    fn hpwl_around(&self, a: usize, b: usize) -> f64 {
        let mut sum = 0.0;
        for &net in self.cell_nets[a].iter().chain(&self.cell_nets[b]) {
            let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
            for &c in &self.net_pins[net as usize] {
                let (px, py) = (self.x[c as usize], self.y[c as usize]);
                x0 = x0.min(px);
                x1 = x1.max(px);
                y0 = y0.min(py);
                y1 = y1.max(py);
            }
            sum += (x1 - x0) + (y1 - y0);
        }
        sum
    }

    fn gather_part(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..GATHER_PASSES {
            let (a, b) = (self.pick(CELLS), self.pick(CELLS));
            let before = self.hpwl_around(a, b);
            self.x.swap(a, b);
            self.y.swap(a, b);
            let after = self.hpwl_around(a, b);
            if after > before {
                self.x.swap(a, b);
                self.y.swap(a, b);
            }
            acc += after - before;
        }
        acc
    }

    fn chase_part(&mut self) -> f64 {
        let mut i = self.pick(RING) as u32;
        for _ in 0..CHASE_STEPS {
            i = self.ring[i as usize];
        }
        f64::from(i)
    }

    /// Run the reference work once; returns each part's wall seconds.
    pub fn time(&mut self) -> [f64; 3] {
        let mut secs = [0.0; 3];
        for (part, s) in secs.iter_mut().enumerate() {
            let start = Instant::now();
            black_box(match part {
                0 => self.row_part(),
                1 => self.gather_part(),
                _ => self.chase_part(),
            });
            *s = start.elapsed().as_secs_f64();
        }
        secs
    }
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Mix {
    /// How much slower than the reference host the host ran, judged by
    /// the probes right before and right after a measurement.
    pub fn host_factor(self, before: [f64; 3], after: [f64; 3]) -> f64 {
        (0..3)
            .map(|i| self.0[i] * 0.5 * (before[i] + after[i]) / REFERENCE_S[i])
            .sum()
    }
}
