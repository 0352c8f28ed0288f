//! What the numbers were measured on, and how disturbed it was: the host
//! block of every result file and the `harness.*` noise readings. All of
//! it comes from `/proc` and two `--version`-style child processes; on a
//! system without `/proc` the fields read "unknown" or 0.

use crate::json::Value;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t` of glibc: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to the lowest-numbered CPU it may run on; returns that CPU, or `None`
/// where the call is unavailable or refused (the run then floats).
///
/// The end-to-end pass runs pinned. A served request alternates between a
/// client and a server thread; floating over two virtual CPUs, each
/// hand-over is a cross-CPU wake-up whose cost depends on what the other
/// CPU is doing, and the round trip read 3.6–7.8 ms from run to run.
/// Pinned it is one core's work and repeats.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: affinity::CpuSet = [0; 16];
        let size = std::mem::size_of::<affinity::CpuSet>();
        // SAFETY: `set` is a live, writable buffer of exactly `size` bytes,
        // the size passed; pid 0 names the calling thread. The call writes
        // at most `size` bytes and keeps no pointer.
        if unsafe { affinity::sched_getaffinity(0, size, &mut set) } != 0 {
            return None;
        }
        let (word, bits) = set.iter().enumerate().find(|(_, w)| **w != 0)?;
        let cpu = word * 64 + bits.trailing_zeros() as usize;
        let mut one: affinity::CpuSet = [0; 16];
        one[word] = 1 << bits.trailing_zeros();
        // SAFETY: `one` is a live buffer of `size` bytes that the call only
        // reads; pid 0 names the calling thread.
        (unsafe { affinity::sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, all threads.
pub fn process_cpu_seconds() -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line. USER_HZ is 100 on Linux.
    let stat = read("/proc/self/stat");
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn steal_and_total_jiffies() -> (f64, f64) {
    let stat = read("/proc/stat");
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0.0, 0.0);
    };
    let f: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user and nice.
    let total: f64 = f.iter().take(8).sum();
    (f.get(7).copied().unwrap_or(0.0), total)
}

/// What `calibrate_ms` reads on the builder's host when nothing else
/// runs. End-to-end timings are reported at this clock: scaled by it over
/// the run's median reading (`run::run`).
pub const CALIB_NOMINAL_MS: f64 = 8.8;

/// A fixed scalar loop (xorshift over registers: no memory traffic, no
/// library call), timed. Run between phases, its median says how fast
/// the host's clock ran for this process while the workload measured, and
/// its spread how much the host moved.
pub fn calibrate_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// File system type of the mount that holds `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    read("/proc/self/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn first_line_of(cmd: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The level of `-C target-cpu` this binary was built for, as far as the
/// enabled target features tell.
pub fn target_cpu() -> &'static str {
    if cfg!(all(
        target_feature = "avx2",
        target_feature = "bmi2",
        target_feature = "fma"
    )) {
        "x86-64-v3"
    } else {
        "baseline"
    }
}

/// Host block: cores, CPU model, rustc, git sha, target-cpu, scratch file
/// system, seed, and the CPU the run is pinned to (if any).
pub fn host_block(scratch: &Path, seed: u64, cores: usize, pinned_cpu: Option<usize>) -> Value {
    let model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or_else(
            || "unknown".into(),
            |v| v.trim_start_matches([' ', '\t', ':']).to_string(),
        );
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    Value::obj([
        ("cores", Value::Num(cores as f64)),
        ("cpu_model", Value::Str(model)),
        (
            "rustc",
            Value::Str(first_line_of("rustc", &["--version"], here)),
        ),
        (
            "git_sha",
            Value::Str(first_line_of("git", &["rev-parse", "HEAD"], here)),
        ),
        ("target_cpu", Value::str(target_cpu())),
        ("scratch_fs", Value::Str(fs_type(scratch))),
        ("seed", Value::Num(seed as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Value::Null, |c| Value::Num(c as f64)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_sane_values() {
        assert!(cores() >= 1);
        // A running test binary has touched memory and burnt some CPU.
        assert!(peak_rss_mb() > 0.5);
        let (steal, total) = steal_and_total_jiffies();
        assert!(total > 0.0 && steal <= total);
        assert!(calibrate_ms() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // On a thread of its own: the test harness's other threads float.
        let (cpu, after) = std::thread::spawn(|| (pin_to_one_cpu(), cores()))
            .join()
            .unwrap();
        if let Some(cpu) = cpu {
            assert_eq!(after, 1, "pinned to CPU {cpu} but still sees {after}");
        }
    }

    #[test]
    fn host_block_has_every_field() {
        let dir = std::env::temp_dir();
        let h = host_block(&dir, 42, cores(), None);
        for key in [
            "cores",
            "cpu_model",
            "rustc",
            "git_sha",
            "target_cpu",
            "scratch_fs",
            "seed",
            "pinned_cpu",
        ] {
            assert!(h.get(key).is_some(), "{key} missing");
        }
        assert_ne!(fs_type(&dir), "unknown");
    }
}
