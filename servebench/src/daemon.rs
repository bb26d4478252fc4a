//! Starts and stops the shipped `isomit-serve` binary with its default
//! tunables; only the network it serves is chosen by the benchmark.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon process. Dropping it kills the process and waits
/// for it, so no run leaves a daemon behind, even on a panic; should
/// the benchmark itself be killed, the kernel kills the daemon too.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `bin` on an ephemeral loopback port serving a generated
    /// Epinions-like network (the daemon's default generator and scale)
    /// seeded with `network_seed`, and waits for its readiness line.
    pub fn start(bin: &Path, network_seed: u64) -> Result<Daemon, String> {
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0", "--generate", "epinions"])
            .args(["--seed", &network_seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the hook runs in the forked child before `exec` and
        // makes a single async-signal-safe system call; it allocates
        // nothing and touches no lock.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == -1 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("isomit-serve listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address (got {line:?})"))
            }
        }
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let field = "VmHWM:";
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no {field} in {path}"))
    }

    /// CPU time the daemon has used so far, over all its threads (ended
    /// ones included), in nanoseconds: the process's CPU-time clock,
    /// which any process may read. The kernel leaves out the time the
    /// hypervisor stole from the machine, so a host that deschedules the
    /// vCPUs slows the daemon's wall-clock figures but not this one.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) of the kernel's
        // posix-cpu-timers: the id of a process's scheduler CPU clock.
        let clock = (!(self.child.id() as i32) << 3) | 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, properly laid out `struct timespec`
        // (64-bit Linux) for the whole call; the kernel only writes it.
        if unsafe { clock_gettime(clock, &mut ts) } != 0 {
            return Err(format!(
                "cannot read the daemon's CPU clock: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// Asks the daemon to drain and stop, waiting up to 30 s before
    /// killing it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = isomit_service::Client::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return asked,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not stop within 30 s of shutdown".into());
                }
            }
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `prctl` option: the signal the child gets when the thread that
/// started it ends (every daemon is started from the main thread).
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// CPU time the hypervisor has stolen from this machine so far, in
/// clock ticks (the `steal` column of `/proc/stat`); 0 where it cannot
/// be read.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().find(|l| l.starts_with("cpu "))?.to_owned();
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
