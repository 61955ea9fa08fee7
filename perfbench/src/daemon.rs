//! The `busytime serve` process under test: spawn, readiness, kill, and the
//! `/proc` figures read from it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use busytime_server::{Client, Request, Response};

/// A running daemon.  Dropping it kills the process and reaps it.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes its banner into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Start `bin serve --addr 127.0.0.1:0 <args>` and wait for its banner.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .split_whitespace()
            .skip_while(|word| *word != "on")
            .nth(1)
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the daemon printed no address: {banner:?}"))
            }
        }
    }

    /// Start a daemon and time it from spawn to its first answered request.
    pub fn spawn_timed(
        bin: &Path,
        args: &[String],
        log: &Path,
        first: &Request,
    ) -> Result<(Daemon, f64, Response), String> {
        let started = Instant::now();
        let daemon = Daemon::spawn(bin, args, log)?;
        let mut client = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
        let response = client.call(first)?;
        Ok((daemon, started.elapsed().as_secs_f64(), response))
    }

    /// Peak resident set size (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Bytes the process has passed to `write`-family calls (`wchar`).
    pub fn wchar(&self) -> Result<u64, String> {
        io_counter(&format!("/proc/{}/io", self.child.id()), "wchar")
    }

    /// Kill the process (SIGKILL) and reap it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// VmHWM of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status).map_err(|e| format!("reading {status}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status}"))
}

/// One counter of a `/proc/<pid>/io` file.
pub fn io_counter(path: &str, key: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|value| value.trim().parse().ok())
        .ok_or_else(|| format!("no {key} in {path}"))
}

/// The filesystem type holding `path` (longest matching mount point).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = PathBuf::from(fields.next()?);
            let fstype = fields.next()?;
            path.starts_with(&mount)
                .then(|| (mount.as_os_str().len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}
