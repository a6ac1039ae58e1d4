//! Processes and CPUs: pinning, the guarded `hbold-server` child, scratch
//! directories that clean up after themselves, and `/proc` readings.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::calib::Interval;

extern "C" {
    // Provided by the C library std already links against; declared here
    // because the workspace has no `libc` crate to depend on.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16; // 1024 CPUs

/// The CPUs this process may run on, from `/proc/self/status`.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restricts the calling thread — and every thread or process it starts
/// from now on — to `cpus`. Returns `false` when the kernel refuses.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu < MASK_WORDS * 64 {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    if mask.iter().all(|w| *w == 0) {
        return false;
    }
    // SAFETY: `mask` is a live, properly aligned array of `MASK_WORDS` u64
    // words and the size passed is exactly its size in bytes; pid 0 means
    // the calling thread. The call reads the mask and has no other effect
    // on this process's memory.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pids of `hbold-server` processes already running on the host: they
/// would compete for the pinned CPU and spoil every reading.
pub fn other_servers() -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/comm"))
                .is_ok_and(|comm| comm.trim() == "hbold-server")
        })
        .collect()
}

/// A directory removed (with everything in it) when the guard drops.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` afresh, deleting whatever was there.
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the regular files directly inside the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `/proc` says a process has used so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// `utime + stime` in seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) in MB (10^6 bytes).
    pub peak_rss_mb: f64,
}

/// How a server is started.
#[derive(Debug, Clone)]
pub struct ServerArgs<'a> {
    /// `--data-dir`.
    pub data_dir: &'a Path,
    /// `--data`: a file to bulk-load on boot.
    pub load: Option<&'a Path>,
    /// `--checkpoint-wal-bytes`.
    pub checkpoint_wal_bytes: Option<u64>,
}

/// A running `hbold-server` child. Dropping the guard — normally, on an
/// error path or while a panic unwinds — `SIGKILL`s the process and reaps
/// it, so no run leaves a server behind to compete for the pinned CPU.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// `host:port` the server listens on.
    pub addr: String,
    /// The `/sparql` URL the server announced.
    pub url: String,
    /// Quads the server announced it is serving.
    pub quads: usize,
    /// Spawn → "serving" line.
    pub boot: Interval,
}

impl Server {
    /// Spawns the server (inheriting this thread's CPU affinity) and blocks
    /// until it announces the address it serves on. The flush policy is the
    /// default one on every run: no `--sync-writes`.
    pub fn spawn(binary: &Path, args: &ServerArgs<'_>) -> Result<Server, String> {
        let mut command = Command::new(binary);
        command
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--enable-shutdown",
            ])
            .arg("--data-dir")
            .arg(args.data_dir);
        if let Some(file) = args.load {
            command.arg("--data").arg(file);
        }
        if let Some(bytes) = args.checkpoint_wal_bytes {
            command.args(["--checkpoint-wal-bytes", &bytes.to_string()]);
        }
        // One malloc arena: with glibc's per-thread arenas, which of the two
        // workers happens to pick up a connection decides whether the peak
        // RSS of an update stream reads 110 or 118 MB.
        command.env("MALLOC_ARENA_MAX", "1");
        let started = Instant::now();
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
            url: String::new(),
            quads: 0,
            boot: Interval::since(started),
        };
        // "hbold-server serving <n> quads at http://<addr>/sparql"
        let mut line = String::new();
        loop {
            line.clear();
            let read = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the server's stdout: {e}"))?;
            if read == 0 {
                return Err("the server exited before it started serving".into());
            }
            if let Some(rest) = line.trim().strip_prefix("hbold-server serving ") {
                let mut words = rest.split(' ');
                server.quads = words.next().and_then(|n| n.parse().ok()).unwrap_or(0);
                server.url = words.next_back().unwrap_or("").to_string();
                break;
            }
        }
        server.boot = Interval::since(started);
        server.addr = server
            .url
            .strip_prefix("http://")
            .and_then(|rest| rest.strip_suffix("/sparql"))
            .ok_or_else(|| format!("unexpected serving line {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// CPU time and peak memory of the server so far.
    pub fn usage(&self) -> Result<Usage, String> {
        let pid = self.child.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the line, i.e. 11 and 12 after the ')'.
        let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
            return Err(format!("cannot parse /proc/{pid}/stat"));
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        let hwm_kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
        Ok(Usage {
            // USER_HZ is 100 on every Linux ABI Rust targets.
            cpu_s: (utime + stime) / 100.0,
            peak_rss_mb: hwm_kb * 1024.0 / 1e6,
        })
    }

    /// Waits for the server to exit by itself (after `POST /shutdown`) and
    /// returns whether it exited with code 0.
    pub fn wait_for_exit(mut self) -> bool {
        self.child.wait().is_ok_and(|status| status.success())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
