//! Host fingerprint and process memory.

use std::path::Path;

/// Worker threads available to the process (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (commit, name) = l.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The repository root the benchmark was built in.
pub fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The fingerprint stamped on every result file: parallelism, compiler,
/// commit, build profile, and the threads and connections the run used.
pub fn fingerprint(threads: usize, connections: usize) -> Vec<(&'static str, String)> {
    vec![
        ("available_parallelism", nproc().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ("git_commit", git_commit(&repo_root())),
        ("build_profile", env!("PERFBENCH_PROFILE").to_string()),
        ("threads", threads.to_string()),
        ("connections", connections.to_string()),
        ("os", std::env::consts::OS.to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
    ]
}
