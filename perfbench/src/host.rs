//! Host fingerprint and process memory, stamped on every result.

use std::path::Path;

/// What a result was measured on and with.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model name.
    pub cpu: String,
    /// Kernel tier `bat-tensor` dispatches to.
    pub simd_tier: &'static str,
    /// Available parallelism.
    pub nproc: usize,
    /// The `BAT_THREADS` setting, if any.
    pub bat_threads: Option<String>,
    /// Threads the compute pool uses.
    pub pool_threads: usize,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this process and host. `root` is the
    /// checkout whose commit is reported.
    pub fn read(root: &Path) -> Self {
        Fingerprint {
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            simd_tier: bat_tensor::ops::active_simd_tier(),
            nproc: nproc(),
            bat_threads: std::env::var("BAT_THREADS").ok(),
            pool_threads: bat_exec::threads(),
            commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Available parallelism (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_owned())
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split(' ').next())
        .map(str::to_owned)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`:
/// steal is time the hypervisor ran something else while this machine's
/// CPUs wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// CPU time the calling thread has run, seconds (`CLOCK_THREAD_CPUTIME_ID`,
/// which includes the thread's current time slice). A guest kernel with
/// paravirtual steal accounting leaves out the time the hypervisor ran
/// other machines, so this clock, unlike the wall clock, does not slow
/// down when the host is busy.
pub fn thread_cpu_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the 64-bit Linux layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}
