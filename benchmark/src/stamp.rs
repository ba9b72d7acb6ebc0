//! The environment stamp every result carries: a perf datum without its
//! build and machine record cannot be compared with anything.

use std::path::Path;
use std::process::Command;

use tscout_obsd::json::escape;

#[derive(Debug, Clone)]
pub struct Stamp {
    pub commit: String,
    pub rustc: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub seed: u64,
    pub scale: f64,
}

/// `HEAD` of the enclosing git checkout, read from `.git` directly (no
/// `git` binary needed); `"unknown"` outside a repository.
fn commit() -> String {
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
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()); // detached HEAD: the hash itself
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

impl Stamp {
    pub fn collect(seed: u64, scale: f64) -> Stamp {
        Stamp {
            commit: commit(),
            rustc: rustc_version(),
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            seed,
            scale,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"cpu_model\": \"{}\", \"nproc\": {}, \"seed\": {}, \"scale\": {}}}",
            escape(&self.commit),
            escape(&self.rustc),
            escape(&self.cpu_model),
            self.nproc,
            self.seed,
            self.scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_complete_and_valid_json_text() {
        let s = Stamp::collect(7, 0.5);
        assert!(s.nproc >= 1);
        assert!(!s.cpu_model.is_empty() && !s.rustc.is_empty() && !s.commit.is_empty());
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"seed\": 7") && j.contains("\"scale\": 0.5"));
    }
}
