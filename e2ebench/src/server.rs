//! One `serve` process per set-up: spawned from the built binary, with a
//! fresh temporary store root when the workload persists, and killed (and
//! its root removed) when the run is done with it.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`, 100
/// on every Linux architecture this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

pub struct Server {
    child: Child,
    // Held open for the process's lifetime: the server prints a second
    // banner line after the address, and a closed pipe would fail it.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    root: Option<PathBuf>,
}

impl Server {
    /// Starts `bin` with default workers, optionally persisting under `root`
    /// (created fresh; removed on drop) with a report-cache capacity.
    pub fn start(
        bin: &Path,
        root: Option<PathBuf>,
        cache_capacity: Option<usize>,
    ) -> io::Result<Self> {
        let mut command = Command::new(bin);
        command.args(["--addr", "127.0.0.1:0"]);
        if let Some(root) = &root {
            if root.exists() {
                fs::remove_dir_all(root)?;
            }
            fs::create_dir_all(root)?;
            command.arg("--store-root").arg(root);
        }
        if let Some(capacity) = cache_capacity {
            command.args(["--cache-capacity", &capacity.to_string()]);
        }
        // glibc creates a malloc arena per concurrently running thread (up
        // to 8 per core).  The server spawns a thread per design sweep and
        // per parallel evaluation, so with more than one arena its peak RSS
        // depends on thread-start timing: design runs measured 70 or 130 MiB
        // at random with the default, and 88 or 104 MiB with two arenas.
        // With one arena they measure 71 MiB.
        let mut child = command
            .env_remove("BITWAVE_STORE_ROOT")
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", bin.display())))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Self {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            root,
        };
        let mut banner = String::new();
        server._stdout.read_line(&mut banner)?;
        server.addr = banner
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected banner `{}`", banner.trim())))?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// User + system CPU seconds the process has used so far, including
    /// threads that have exited.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name start at field 3.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .map(|v| v as f64)
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        // utime and stime are fields 14 and 15.
        Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(root) = &self.root {
            let _ = fs::remove_dir_all(root);
        }
    }
}
