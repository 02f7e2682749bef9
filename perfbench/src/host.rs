//! Provenance of a run and process-level measurements.

use statobd::num::json::Json;
use std::path::Path;

/// Facts that decide whether two runs may be compared: which source was
/// built, on what host, with which lane dispatch.
pub fn provenance() -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let lanes = statobd::num::simd::active_width().lanes();
    vec![
        ("source_digest".to_string(), Json::String(source_digest())),
        ("commit".to_string(), Json::String(commit())),
        ("host".to_string(), Json::String(hostname())),
        ("nproc".to_string(), Json::Number(nproc as f64)),
        ("lane_width".to_string(), Json::Number(lanes as f64)),
        (
            "lanes".to_string(),
            Json::String(statobd::num::simd::dispatch_label()),
        ),
    ]
}

/// FNV-1a-64 over the library sources the benchmark builds from, in
/// sorted path order: identifies the code under test even where the
/// checkout carries no version-control metadata.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["src", "crates", "Cargo.toml", "Cargo.lock"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let Ok(bytes) = std::fs::read(file) else {
            continue;
        };
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

extern "C" {
    fn gethostname(name: *mut u8, len: usize) -> i32;
}

/// Peak resident set size of this process, in MiB: `VmHWM` from
/// `/proc/self/status`. Unlike `getrusage`'s `ru_maxrss`, it belongs to
/// the address space after `exec`, so a launcher such as `cargo run`
/// does not leave its own high-water mark in the figure.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn hostname() -> String {
    let mut buf = [0u8; 256];
    // SAFETY: `buf` is writable for `buf.len()` bytes; gethostname writes
    // at most that many and we read only up to the first NUL.
    let rc = unsafe { gethostname(buf.as_mut_ptr(), buf.len()) };
    if rc != 0 {
        return "unknown".to_string();
    }
    let end = buf.iter().position(|&b| b == 0).unwrap_or(buf.len());
    String::from_utf8_lossy(&buf[..end]).into_owned()
}
