//! The `chemcost serve` child process: spawn at default flags with a
//! scrubbed environment, find its address, read its `/proc` counters,
//! and stop it.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, 100
/// on every Linux target this runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// Environment prefixes scrubbed from the daemon's environment, so an
/// inherited log level or chaos profile cannot change what is measured.
const SCRUBBED_ENV: [&str; 2] = ["CHEMCOST_LOG", "CHEMCOST_CHAOS"];

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Spawn `chemcost serve --model <model> --machine aurora` on an
    /// ephemeral loopback port and wait for its listening line. Returns
    /// the daemon and the instant it was spawned.
    pub fn spawn(bin: &Path, model: &Path) -> io::Result<(Daemon, Instant)> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--machine", "aurora", "--addr", "127.0.0.1:0", "--model"])
            .arg(model)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, _) in std::env::vars_os() {
            if SCRUBBED_ENV.iter().any(|p| key.to_string_lossy().starts_with(p)) {
                cmd.env_remove(&key);
            }
        }
        let spawned = Instant::now();
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drain stderr for the daemon's whole life so it can never block
        // on a full pipe; the first listening line carries the address.
        let reader = std::thread::spawn(move || {
            let mut log = String::new();
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line
                    .split_once("listening on http://")
                    .and_then(|(_, rest)| rest.split_whitespace().next())
                    .and_then(|a| a.parse::<SocketAddr>().ok())
                {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => Ok((Daemon { child, addr, stderr: Some(reader) }, spawned)),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let log = reader.join().unwrap_or_default();
                Err(io::Error::other(format!("daemon never listened; stderr:\n{log}")))
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Cumulative user + system CPU of every thread, live or exited, ms.
    pub fn cpu_ms(&self) -> f64 {
        proc_cpu_ms(&format!("/proc/{}/stat", self.pid()))
    }

    /// `VmHWM` (peak resident set), MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        status_field(&format!("/proc/{}/status", self.pid()), "VmHWM:") / 1024.0
    }

    /// Live thread count.
    pub fn threads(&self) -> f64 {
        status_field(&format!("/proc/{}/status", self.pid()), "Threads:")
    }

    /// Voluntary plus involuntary context switches summed over the live
    /// threads (exited threads' switches are not visible in `/proc`).
    pub fn ctx_switches(&self) -> f64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid())) else {
            return 0.0;
        };
        tasks
            .flatten()
            .map(|t| {
                let status = t.path().join("status");
                let status = status.to_string_lossy();
                status_field(&status, "voluntary_ctxt_switches:")
                    + status_field(&status, "nonvoluntary_ctxt_switches:")
            })
            .sum()
    }

    /// Ask for a graceful drain (`POST /v1/shutdown`) and wait for the
    /// process to exit; kill it if it has not within 10 s. Returns its
    /// stderr.
    pub fn shutdown(mut self) -> String {
        let asked = crate::wire::Conn::connect(self.addr)
            .and_then(|mut c| c.call(&crate::workload::http_post("/v1/shutdown", "", None)));
        if asked.is_ok() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if matches!(self.child.try_wait(), Ok(Some(_))) {
                    return self.join_stderr();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.kill()
    }

    /// Kill the process, reap it, and return its stderr.
    pub fn kill(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_stderr()
    }

    fn join_stderr(&mut self) -> String {
        self.stderr.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.kill();
        }
    }
}

/// utime + stime of a `/proc/.../stat` file, ms (0 if unreadable).
pub fn proc_cpu_ms(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else { return 0.0 };
    // utime and stime are fields 14 and 15 of the line; the state after
    // the parenthesised command name is field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks * 1000.0 / TICKS_PER_SEC
}

/// The first number after `key` in a `/proc/.../status` file.
fn status_field(path: &str, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Host-wide stolen CPU time so far (the `steal` column of `/proc/stat`),
/// ms.
pub fn host_steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks * 1000.0 / TICKS_PER_SEC)
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
