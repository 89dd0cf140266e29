//! What the run ran on: the host fingerprint every record carries, the
//! one-CPU pin, and the process's peak memory.

use crate::json::Value;
use std::process::Command;

/// Marks the re-executed, pinned child so it does not pin again.
pub const CHILD_ENV: &str = "PIPELEON_PERF_CHILD";

/// The host a record was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// CPUs online on the host.
    pub cpus_online: usize,
    /// CPUs this process may run on (`Cpus_allowed_list`).
    pub cpus_allowed: String,
    /// Whether the process is confined to exactly one CPU.
    pub pinned: bool,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// The checkout's commit, or `unknown` outside a git repository.
    pub commit: String,
}

impl HostInfo {
    /// Reads the fingerprint of the current process and host.
    pub fn read() -> HostInfo {
        let allowed = status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            // Not `available_parallelism`: that counts the CPUs this
            // process is pinned to, which is one.
            cpus_online: std::fs::read_to_string("/sys/devices/system/cpu/online")
                .map_or(0, |s| parse_cpu_list(s.trim()).len()),
            pinned: parse_cpu_list(&allowed).len() == 1,
            cpus_allowed: allowed,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: Command::new("rustc")
                .arg("--version")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map_or_else(
                    || "unknown".to_string(),
                    |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
                ),
            commit: git_head().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("cpus_online", Value::Int(self.cpus_online as i64))
            .with("cpus_allowed", Value::Str(self.cpus_allowed.clone()))
            .with("pinned", Value::Bool(self.pinned))
            .with("kernel", Value::Str(self.kernel.clone()))
            .with("rustc", Value::Str(self.rustc.clone()))
            .with("commit", Value::Str(self.commit.clone()))
    }
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(':'))
            .map(|v| v.trim().to_string())
    })
}

/// Parses a kernel CPU list such as `0-3,7` into CPU numbers.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let part = part.trim();
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => {
                if let Ok(c) = part.parse() {
                    cpus.push(c);
                }
            }
        }
    }
    cpus
}

/// Reads `.git/HEAD` of the working directory without spawning git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Re-executes the current program under `taskset -c <last allowed
/// cpu>` so every thread of the run shares one CPU, and returns the
/// child's exit code. Returns `None` — run here, unpinned — when this
/// process already is the child, or when `taskset` cannot be started.
pub fn reexec_pinned(args: &[String]) -> Option<i32> {
    if std::env::var_os(CHILD_ENV).is_some() {
        return None;
    }
    let allowed = status_field("Cpus_allowed_list")?;
    let cpu = *parse_cpu_list(&allowed).last()?;
    let exe = std::env::current_exe().ok()?;
    let pinned = |args: &[String]| {
        Command::new("taskset")
            .arg("-c")
            .arg(cpu.to_string())
            .arg(&exe)
            .args(args)
            .env(CHILD_ENV, "1")
            .status()
            .ok()
    };
    // `taskset` may be missing, or refused; learn that from a child that
    // does nothing before trusting it with the run.
    if !pinned(&["pin-probe".to_string()])?.success() {
        return None;
    }
    Some(pinned(args)?.code().unwrap_or(1))
}
