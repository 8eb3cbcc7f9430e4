//! Daemon processes: spawn, readiness, peak memory, and teardown on every
//! exit path.
//!
//! Every daemon the benchmark starts gets its sockets under one run
//! directory, `.bench_run/<benchmark pid>/`, relative to the checkout (Unix
//! socket paths are short that way).  That directory name in a process's
//! command line is how leftovers are recognised: the front's shards are
//! grandchildren, so a crashed front can orphan them.

use crate::client::Conn;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Root of all run directories, relative to the checkout.
pub const RUN_ROOT: &str = ".bench_run";

/// A live `qld` process started from this checkout for a benchmark run.
#[derive(Debug, Clone)]
pub struct Leftover {
    pub pid: i32,
    pub cmdline: String,
}

/// `qld` processes whose command line names a run directory under
/// [`RUN_ROOT`] and whose working directory is this one; with `marker`, only
/// those naming that run directory.
pub fn bench_processes(marker: Option<&str>) -> Vec<Leftover> {
    let Ok(here) = std::env::current_dir() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir("/proc") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let proc_dir = entry.path();
        let comm = fs::read_to_string(proc_dir.join("comm")).unwrap_or_default();
        if comm.trim() != "qld" || is_zombie(pid) {
            continue;
        }
        let Ok(raw) = fs::read(proc_dir.join("cmdline")) else {
            continue;
        };
        let cmdline = String::from_utf8_lossy(&raw).replace('\0', " ");
        let wanted = marker.unwrap_or(RUN_ROOT);
        if !cmdline.contains(wanted) {
            continue;
        }
        if fs::read_link(proc_dir.join("cwd")).ok().as_deref() != Some(here.as_path()) {
            continue;
        }
        out.push(Leftover {
            pid,
            cmdline: cmdline.trim().to_string(),
        });
    }
    out
}

fn is_zombie(pid: i32) -> bool {
    fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            s.rsplit(')')
                .next()
                .map(|rest| rest.trim_start().starts_with('Z'))
        })
        .unwrap_or(true)
}

fn alive(pid: i32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists() && !is_zombie(pid)
}

/// Peak resident set (`VmHWM`) of one process, in KiB.
fn peak_rss_kib(pid: i32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// SIGTERM, then SIGKILL after `grace`, for processes that are not our
/// children (orphaned shards); waits until each has gone.
fn terminate_foreign(pids: &[i32], grace: Duration) {
    for &pid in pids {
        let _ = signal::kill(pid, signal::Signal::Terminate);
    }
    let deadline = Instant::now() + grace;
    while pids.iter().any(|&p| alive(p)) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    for &pid in pids.iter().filter(|&&p| alive(p)) {
        let _ = Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while pids.iter().any(|&p| alive(p)) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
}

/// The daemon side of one workload run: a `qld serve` daemon, or a `qld
/// front` router with its shards.  Dropping it stops every process and
/// removes every socket, also when the run fails or panics.
pub struct Daemons {
    dir: PathBuf,
    child: Option<Child>,
    /// The socket clients connect to.
    pub socket: PathBuf,
    /// The shards' own sockets (front only), for direct-to-shard probes.
    pub shard_sockets: Vec<PathBuf>,
    /// The command line, for the result record.
    pub flags: String,
}

impl Daemons {
    /// Starts `qld serve` on a socket in `dir`.
    pub fn serve(qld: &Path, dir: &Path, flags: &[&str]) -> io::Result<Daemons> {
        let socket = dir.join("serve.sock");
        let mut args = vec![
            "serve".to_string(),
            "--socket".to_string(),
            path_arg(&socket),
        ];
        args.extend(flags.iter().map(|s| s.to_string()));
        Daemons::start(qld, dir, socket, Vec::new(), args)
    }

    /// Starts `qld front` with `shards` shards, sockets and snapshots in `dir`.
    pub fn front(qld: &Path, dir: &Path, shards: usize) -> io::Result<Daemons> {
        let socket = dir.join("front.sock");
        let shard_dir = dir.join("shards");
        let shard_sockets = (0..shards)
            .map(|i| shard_dir.join(format!("shard-{i}.sock")))
            .collect();
        let args = vec![
            "front".to_string(),
            "--socket".to_string(),
            path_arg(&socket),
            "--dir".to_string(),
            path_arg(&shard_dir),
            "--shards".to_string(),
            shards.to_string(),
        ];
        Daemons::start(qld, dir, socket, shard_sockets, args)
    }

    fn start(
        qld: &Path,
        dir: &Path,
        socket: PathBuf,
        shard_sockets: Vec<PathBuf>,
        args: Vec<String>,
    ) -> io::Result<Daemons> {
        fs::create_dir_all(dir)?;
        let log = fs::File::create(dir.join("daemon.log"))?;
        let child = Command::new(qld)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        Ok(Daemons {
            dir: dir.to_path_buf(),
            child: Some(child),
            socket,
            shard_sockets,
            flags: format!("qld {}", args.join(" ")),
        })
    }

    /// Waits until the daemon answers a `stats` request (the end of set-up).
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(child) = self.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("{} exited early: {status}", self.flags));
                }
            }
            if let Ok(mut conn) = Conn::connect(&self.socket) {
                if conn.stats().is_ok() {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("{} not ready after {timeout:?}", self.flags));
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    fn marker(&self) -> String {
        format!("{}/", self.dir.display())
    }

    /// Peak resident set summed over every daemon process, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        bench_processes(Some(&self.marker()))
            .iter()
            .filter_map(|p| peak_rss_kib(p.pid))
            .sum::<f64>()
            / 1024.0
    }

    /// Stops the daemon (SIGTERM, so the front tears its shards down), then
    /// any process left under this run directory, and removes the sockets.
    pub fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = signal::kill(child.id() as i32, signal::Signal::Terminate);
            let deadline = Instant::now() + Duration::from_secs(5);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(10));
            }
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        let left: Vec<i32> = bench_processes(Some(&self.marker()))
            .iter()
            .map(|p| p.pid)
            .collect();
        if !left.is_empty() {
            terminate_foreign(&left, Duration::from_secs(2));
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        self.stop();
    }
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// The run directory of this benchmark process; removed with its parent
/// when empty.
pub struct RunDir {
    pub path: PathBuf,
}

impl RunDir {
    /// Refuses, loudly, to start while daemons of an earlier run of this
    /// checkout are alive: they would compete for the two CPUs.
    pub fn claim() -> Result<RunDir, String> {
        let stale = bench_processes(None);
        if !stale.is_empty() {
            let list: Vec<String> = stale
                .iter()
                .map(|p| format!("  pid {}: {}", p.pid, p.cmdline))
                .collect();
            return Err(format!(
                "qld processes from an earlier benchmark run are still alive; stop them first:\n{}",
                list.join("\n")
            ));
        }
        // No daemon is alive, so any old run directory is debris.
        let _ = fs::remove_dir_all(RUN_ROOT);
        let path = Path::new(RUN_ROOT).join(std::process::id().to_string());
        fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    /// A fresh subdirectory for one daemon set.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        let _ = fs::remove_dir(RUN_ROOT);
    }
}
