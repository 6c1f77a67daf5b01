//! Host and provenance facts, and the process counters read from
//! `/proc` (no libc, no `unsafe`). Everything degrades to `"unknown"` or
//! 0 where `/proc` or `.git` is absent, so the benchmark still runs in a
//! bare checkout.

use crate::json::obj;
use serde_json::Value;
use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `sysconf(_SC_CLK_TCK)` needs libc; Linux has fixed
/// USER_HZ at 100 on every architecture this repo builds on.
const CLK_TCK: f64 = 100.0;

/// Process user+system CPU time in seconds, threads that already exited
/// included.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map(|ticks| ticks as f64 / CLK_TCK)
        .unwrap_or(0.0)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM:"))
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Filesystem type of the mount holding `path` — or its nearest existing
/// ancestor: state roots are removed when a run ends — from
/// `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let Some(path) = path.ancestors().find_map(|p| p.canonicalize().ok()) else {
        return "unknown".into();
    };
    fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|m| parse_mountinfo(&m, &path.to_string_lossy()))
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type of the longest mount point that is a path prefix
/// of `path`.
pub fn parse_mountinfo(mountinfo: &str, path: &str) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <src> <opts>"
        let (pre, post) = line.split_once(" - ")?;
        let mount = pre.split_whitespace().nth(4)?;
        let fstype = post.split_whitespace().next()?;
        let covers = path == mount
            || mount == "/"
            || path
                .strip_prefix(mount)
                .is_some_and(|rest| rest.starts_with('/'));
        if covers && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// Current revision from `.git` in or above the working directory, read
/// as files: no `git` binary, no network.
pub fn git_revision() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return read_head(&git).unwrap_or_else(|| "unknown".into());
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

fn read_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)
            .map(|rev| rev.trim().to_string())
            .filter(|rev| !rev.is_empty())
    })
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host block every output file carries.
pub fn host_block(state_dir: &Path) -> Value {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    obj(vec![
        ("available_parallelism", Value::U64(cores)),
        ("rustc", Value::String(rustc_version())),
        (
            "profile",
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("git_revision", Value::String(git_revision())),
        ("state_fs", Value::String(fs_type(state_dir))),
    ])
}
