//! Small measurement helpers: the seeded generator, host-speed probes,
//! order statistics, host memory high-water marks and the source digest.

use std::path::Path;
use std::time::Instant;

/// SplitMix64: every input the benchmark makes is drawn from this,
/// seeded by `--seed`, so one seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_cafe_f00d_d00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Probe seconds at the reference host speed: about the probe's time on
/// an uncontended core of a 2-vCPU Xeon guest.
pub const PROBE_REF_S: f64 = 0.012;

/// The reference kernel the host's current speed is read from: a fixed
/// byte-coded dispatch loop over a 256 KiB table. It shares no code with
/// the repository, so no change to the program under test moves it.
/// Returns its host seconds.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut mem = vec![0u32; 1 << 16];
    let code: Vec<u8> = std::hint::black_box(
        (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 29) as u8).collect(),
    );
    let (mut a, mut b, mut pc) = (1u32, 7u32, 0usize);
    for _ in 0..3_000_000u32 {
        match code[pc & 4095] {
            0 => a = a.wrapping_add(b),
            1 => b = b.wrapping_mul(a | 1),
            2 => mem[a as usize & 0xffff] = b,
            3 => a ^= mem[b as usize & 0xffff],
            4 => b = b.rotate_left(5) ^ a,
            5 => pc = pc.wrapping_add((a & 7) as usize),
            6 => a = a.wrapping_sub(mem[(a >> 3) as usize & 0xffff]),
            _ => b = b.wrapping_add(0x9e37_79b9),
        }
        pc = pc.wrapping_add(1);
    }
    std::hint::black_box((a, b, &mem));
    t0.elapsed().as_secs_f64()
}

/// One timed call: its host seconds and how much slower than the
/// reference speed the probe ran around it.
#[derive(Clone, Copy)]
pub struct Timing {
    pub secs: f64,
    /// Mean of the probes before and after the call, over [`PROBE_REF_S`].
    pub probe_ratio: f64,
}

impl Timing {
    /// The call's seconds at the reference host speed.
    pub fn at_reference(&self) -> f64 {
        self.secs / self.probe_ratio
    }
}

/// Runs `f` between two probes on this thread. On a shared host this
/// thread's speed swings up to 2x within seconds as neighbours come and
/// go on the same core; the probes catch a swing that lasts longer than
/// the call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let before = probe();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let probe_ratio = (before + probe()) / 2.0 / PROBE_REF_S;
    (out, Timing { secs, probe_ratio })
}

/// Nearest-rank percentile (`ceil(p·N)`-th smallest), the definition
/// `serveload` uses. `p` in (0, 1]; `values` must be non-empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `VmHWM` (peak resident set) of a process, in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// FNV-1a over the workspace manifests and every crate source (paths and
/// contents, in sorted order) — the build's provenance when the tree is
/// not a git checkout.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf(), Path::new("Cargo.lock").into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn seeded_shuffle_repeats() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
