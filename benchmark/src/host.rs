//! Host diagnostics recorded beside the metrics: load average, CPU steal,
//! a fixed calibration kernel, and the process's peak resident set.
//!
//! Unchanged code has been seen to drift by 10–40 % between 15 s windows on
//! a shared host, while a pure-ALU loop stayed steady and random memory
//! access did not. The calibration kernel times one of each between units,
//! so a reader can tell host drift from a program change.

use std::time::Instant;

/// Bytes the memory half of the calibration kernel walks. Allocated once at
/// start-up, so it adds a constant to `peak_rss_mb`.
const CALIBRATION_BYTES: usize = 1 << 20;

/// The fixed calibration kernel: an ALU loop and a random pointer chase.
#[derive(Debug)]
pub struct Calibration {
    next: Vec<u32>,
    /// Milliseconds per ALU run, one entry per call of [`Calibration::run`].
    pub alu_ms: Vec<f64>,
    /// Milliseconds per pointer-chase run.
    pub mem_ms: Vec<f64>,
}

impl Calibration {
    /// Builds the pointer-chase cycle from `seed` (a single random cycle
    /// through every slot, so each load depends on the previous one).
    pub fn new(seed: u64) -> Self {
        let n = CALIBRATION_BYTES / std::mem::size_of::<u32>();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = SplitMix(seed);
        for i in (1..n).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; n];
        for w in 0..n {
            next[order[w] as usize] = order[(w + 1) % n];
        }
        Calibration {
            next,
            alu_ms: Vec::new(),
            mem_ms: Vec::new(),
        }
    }

    /// Runs and times both halves once (about 2 ms in all).
    pub fn run(&mut self) {
        let start = Instant::now();
        let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..400_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        self.alu_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..200_000 {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        self.mem_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
}

/// SplitMix64, the calibration kernel's seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The 1-minute load average, if readable.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Cumulative steal time of all CPUs, in clock ticks, if readable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
