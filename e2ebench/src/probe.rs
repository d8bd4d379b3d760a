//! Readings taken from outside the program: wall and CPU clocks, peak
//! memory, and the fingerprint of the machine and build.

use crate::stats;
use foundation::json::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, fixed
/// at 100 in the Linux user-space ABI).
const TICKS_PER_S: f64 = 100.0;

/// User+system CPU seconds of the whole process, all threads included.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
}

/// Peak resident memory of the process (`VmHWM`) in MiB, since the start
/// or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Lower `VmHWM` to the current resident size, so that the next
/// [`peak_rss_mb`] reads the peak of what ran since.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Hand the allocator's free memory back to the kernel, so that the
/// resident size at the start of a job is the memory still in use. glibc
/// keeps freed memory resident, and how much depends on the order of
/// earlier frees: without this, one workload's job peak read one of two
/// values 15% apart from episode to episode.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's malloc_trim takes a plain size and works only on the
    // allocator's own free lists, under the allocator's locks; it may be
    // called at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// What the timed job cost: wall and CPU time, and peak memory.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` at the end of the job, counted from the resident size at
    /// its start (after free memory is released): the set-up's own peak
    /// is not in it.
    pub peak_rss_mb: f64,
}

/// Wall time, CPU time and peak memory from [`Clock::start`] to
/// [`Clock::stop`].
pub struct Clock {
    wall: Instant,
    cpu_s: f64,
}

impl Clock {
    /// Release free memory, reset the memory high-water mark and start
    /// both clocks.
    pub fn start() -> Result<Clock, String> {
        release_free_memory();
        reset_peak_rss()?;
        Ok(Clock {
            cpu_s: process_cpu_s()?,
            wall: Instant::now(),
        })
    }

    /// The cost since the start.
    pub fn stop(&self) -> Result<Cost, String> {
        let wall_s = self.wall.elapsed().as_secs_f64();
        Ok(Cost {
            wall_s,
            cpu_s: process_cpu_s()? - self.cpu_s,
            peak_rss_mb: peak_rss_mb()?,
        })
    }
}

/// What [`reference_job_s`] takes on the machine the baseline was measured
/// on (a 2-core virtual machine, in its faster state). Timed metrics are
/// scaled to this speed: see [`Speed`].
pub const NOMINAL_REFERENCE_S: f64 = 0.150;

/// Run the fixed reference job once and return its wall time in seconds.
///
/// The job is the same in every build and every run, and calls nothing of
/// the program under test. It formats and hashes strings, fills and walks
/// an ordered map, sorts integers and multiplies small matrices: the kind
/// of work a crawl and its analyses do. So its time tracks how fast the
/// machine runs at the moment, whatever the program does.
pub fn reference_job_s() -> f64 {
    const ROUNDS: usize = 8;
    const KEYS: u64 = 40_000;
    const SORTED: usize = 200_000;
    const DIM: usize = 96;
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..ROUNDS {
        let mut map = BTreeMap::new();
        for i in 0..KEYS {
            map.insert(format!("offer-{}-{:x}", i % 977, next()), i);
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in map.keys().flat_map(|key| key.bytes()) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut ints: Vec<u64> = (0..SORTED).map(|_| next()).collect();
        ints.sort_unstable();
        let a: Vec<f64> = (0..DIM * DIM).map(|i| (i % 17) as f64 * 0.25).collect();
        let mut c = vec![0.0f64; DIM * DIM];
        for i in 0..DIM {
            for k in 0..DIM {
                let aik = a[i * DIM + k];
                for j in 0..DIM {
                    c[i * DIM + j] += aik * a[k * DIM + j];
                }
            }
        }
        black_box((hash, ints[SORTED / 2], c[DIM + 1], map.len()));
    }
    started.elapsed().as_secs_f64()
}

/// How fast the machine ran over one run: the median time of the reference
/// job, timed just before and just after each episode.
///
/// A shared virtual machine changes speed by up to 2x within minutes, and
/// the program's CPU time changes with it, so a raw time says more about
/// the machine's neighbours than about the program. The ratio of a time to
/// the reference job's does not move with the machine. [`Speed::nominal`]
/// expresses a time in seconds at the nominal speed, where the reference
/// job takes [`NOMINAL_REFERENCE_S`].
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    reference_s: f64,
}

impl Speed {
    /// The speed of a run whose reference job took `reference_s`; `None`
    /// without a sample.
    pub fn of(reference_s: &[f64]) -> Option<Speed> {
        stats::median(reference_s).map(|reference_s| Speed { reference_s })
    }

    /// `raw_s`, measured at this speed, in seconds at the nominal speed.
    pub fn nominal(&self, raw_s: f64) -> f64 {
        raw_s * NOMINAL_REFERENCE_S / self.reference_s
    }
}

/// What a result must be read with: the machine, its load, and the build.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Cores available to the process.
    pub nproc: usize,
    /// CPUs the process may run on (`Cpus_allowed_list`).
    pub cpus_allowed: String,
    /// The CPU the run was pinned to with `taskset`, or `no`. Pinned and
    /// unpinned figures of one workload are not comparable.
    pub pinned: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    /// Commit checked out in the working directory, when it is a git
    /// checkout.
    pub commit: String,
    /// 1, 5 and 15 minute load averages at start.
    pub loadavg: String,
}

impl Fingerprint {
    /// Take the fingerprint now.
    pub fn capture() -> Fingerprint {
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".to_string());
        Fingerprint {
            cpus_allowed: cpus_allowed().unwrap_or_else(|| "unknown".to_string()),
            pinned: pinned_cpu().unwrap_or_else(|| "no".to_string()),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: env!("E2EBENCH_RUSTC_VERSION"),
            profile: env!("E2EBENCH_PROFILE"),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            loadavg,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        Json::Obj(vec![
            ("nproc".to_string(), Json::Num(self.nproc as f64)),
            ("cpus_allowed".to_string(), text(&self.cpus_allowed)),
            ("pinned".to_string(), text(&self.pinned)),
            ("rustc".to_string(), text(self.rustc)),
            ("profile".to_string(), text(self.profile)),
            ("commit".to_string(), text(&self.commit)),
            ("loadavg".to_string(), text(&self.loadavg)),
        ])
    }
}

/// The CPUs this process may run on, as `/proc/self/status` lists them
/// (`0-1`).
pub fn cpus_allowed() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// Set, to the CPU, in a run that re-started itself pinned to one CPU.
pub const PINNED_ENV: &str = "E2EBENCH_PINNED_CPU";

/// The CPU this run is pinned to, if it re-started itself pinned.
pub fn pinned_cpu() -> Option<String> {
    std::env::var(PINNED_ENV).ok()
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git (so nothing outside the checkout is read).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let clock = Clock::start().expect("clock");
        let mut x = 0u64;
        let started = Instant::now();
        while started.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let cost = clock.stop().expect("clock");
        assert!(cost.wall_s >= 0.2, "wall {}", cost.wall_s);
        assert!(
            cost.cpu_s > 0.05,
            "a busy 200 ms loop shows CPU time, got {}",
            cost.cpu_s
        );
        assert!(cost.peak_rss_mb > 0.0);
    }

    #[test]
    fn nominal_time_is_the_time_at_the_reference_speed() {
        let nominal = Speed::of(&[NOMINAL_REFERENCE_S]).expect("a sample");
        assert!((nominal.nominal(2.0) - 2.0).abs() < 1e-12);
        // Twice as slow (the median of the reference times): 4 s raw is
        // 2 s nominal.
        let slow = [1.0, 2.0, 2.0, 9.0].map(|x| x * NOMINAL_REFERENCE_S);
        let slow = Speed::of(&slow).expect("samples");
        assert!((slow.nominal(4.0) - 2.0).abs() < 1e-12);
        assert!(Speed::of(&[]).is_none());
        assert!(reference_job_s() > 0.0);
    }

    #[test]
    fn peak_memory_counts_from_the_reset() {
        const MB: usize = 1 << 20;
        let big = std::hint::black_box(vec![1u8; 192 * MB]);
        drop(big);
        let before = peak_rss_mb().expect("VmHWM");
        let clock = Clock::start().expect("clock");
        let small = std::hint::black_box(vec![1u8; 8 * MB]);
        let cost = clock.stop().expect("clock");
        drop(small);
        assert!(
            cost.peak_rss_mb < before - 96.0,
            "the 192 MB before the reset must not count: {} vs {before}",
            cost.peak_rss_mb
        );
    }
}
