//! The server under test: the release `cqchase serve`, started as a
//! child process on `127.0.0.1:0`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cqchase_service::Client;

/// A running server process.
pub struct ServerProc {
    child: Child,
    /// The address parsed from the server's `listening on` line.
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin serve --addr 127.0.0.1:0 [--data-dir dir]` and waits
    /// for its `listening on` line.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(d) = data_dir {
            cmd.arg("--data-dir").arg(d);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        match rest.trim().parse::<SocketAddr>() {
                            Ok(a) => break a,
                            Err(e) => {
                                let _ = child.kill();
                                let _ = child.wait();
                                return Err(format!("bad listening line {line:?}: {e}"));
                            }
                        }
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before printing its address".into());
                }
            }
        };
        // Keep reading so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        Ok(ServerProc {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the server to shut down, then waits for the process (killing
    /// it if it has not exited within a few seconds).
    pub fn stop(mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached when `stop` was not called (an error path): never
        // leave the child running.
        if self.drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A scratch directory inside the build directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates a fresh, empty directory `<root>/<name>`.
    pub fn new(root: &Path, name: &str) -> Result<ScratchDir, String> {
        let p = root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(ScratchDir(p))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
