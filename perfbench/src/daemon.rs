//! A real `pnp_serve` daemon as a child process: spawned on a store,
//! readiness-timed up to its first answered `Ping`, queried for `Stats`
//! and peak memory, and shut down and reaped.

use pnp_serve::{Client, Request, Response, ServeStats};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to answer its first `Ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the connection threads of closed clients may take to end.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon; shut down and reaped on drop.
pub struct Daemon {
    child: Child,
    port: u16,
    asked_to_stop: bool,
    /// Spawn until the first `Ping` was answered.
    pub ready: Duration,
}

impl Daemon {
    /// Spawns `binary --store STORE --port-file …` with the daemon's default
    /// settings and waits until it answers a `Ping`.
    pub fn spawn(binary: &Path, store: &Path, scratch: &Path) -> Result<Daemon, String> {
        let port_file: PathBuf = scratch.join(format!("port-{}", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let started = Instant::now();
        let child = Command::new(binary)
            .arg("--store")
            .arg(store)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut daemon = Daemon {
            child,
            port: 0,
            asked_to_stop: false,
            ready: Duration::ZERO,
        };
        loop {
            if let Some(status) = daemon.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("daemon did not become ready in time".into());
            }
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|text| text.trim().parse().ok())
            {
                daemon.port = port;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match daemon.client()?.request(&Request::Ping)? {
            Response::Ok => {}
            other => return Err(format!("unexpected answer to Ping: {other:?}")),
        }
        daemon.ready = started.elapsed();
        let _ = std::fs::remove_file(&port_file);
        Ok(daemon)
    }

    /// The daemon's address.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// A fresh connection.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// The daemon's serving counters.
    pub fn stats(&self) -> Result<ServeStats, String> {
        match self.client()?.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("unexpected answer to Stats: {other:?}")),
        }
    }

    /// Peak resident memory so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Threads the daemon runs now (`Threads:` in its status).
    pub fn threads(&self) -> Result<usize, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .and_then(|rest| rest.trim().parse().ok())
            .ok_or_else(|| format!("{path}: no Threads line"))
    }

    /// Waits until the daemon runs no more than `idle` threads, so the
    /// connection threads of closed sessions have ended before new ones
    /// start. Sessions that overlap their predecessor's teardown make the
    /// allocator open extra arenas at random, which moves the peak memory
    /// from run to run.
    pub fn wait_idle(&self, idle: usize) -> Result<(), String> {
        let deadline = Instant::now() + IDLE_TIMEOUT;
        while self.threads()? > idle {
            if Instant::now() > deadline {
                return Err(format!(
                    "daemon kept more than {idle} threads after its clients left"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Sends `Shutdown` without waiting for the exit. Every client
    /// connection must be closed first: the daemon drains open connections
    /// before it exits.
    pub fn ask_to_stop(&mut self) -> Result<(), String> {
        if !self.asked_to_stop {
            self.client()?.request(&Request::Shutdown)?;
            self.asked_to_stop = true;
        }
        Ok(())
    }

    /// Asks the daemon to stop and waits for it to exit; kills it when it
    /// does not.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
            return Ok(());
        }
        let asked = self.ask_to_stop();
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked.is_ok() && Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        self.child.wait().map_err(|e| e.to_string())?;
        Err("daemon did not stop on Shutdown; killed".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))
}
