//! Host and provenance block carried by every result, and the rule that
//! results from different hosts are never compared.

use lopc_serve::json::Json;
use std::path::Path;
use std::process::Command;

/// Where and from what a result was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a hash of the repository's crate sources and lock file, so a
    /// result stays attributable where git is unavailable.
    pub source_hash: String,
    /// `rustc --version`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the sorted relative paths and contents of every file under
/// `dirs` (relative to `root`).
pub fn source_hash(root: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        let p = root.join(d);
        if p.is_dir() {
            walk(&p, &mut files);
        } else if p.is_file() {
            files.push(p);
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

impl Host {
    /// Probe the current host; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Host {
        Host {
            nproc: nproc(),
            cpu_model: cpu_model(),
            git_rev: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            source_hash: source_hash(root, &["crates", "Cargo.lock"]),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The block as JSON.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("source_hash".into(), Json::Str(self.source_hash.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
        ])
    }

    /// Decode a block written by [`Host::to_json`].
    pub fn from_json(v: &Json) -> Option<Host> {
        let s = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        Some(Host {
            nproc: v.get("nproc")?.as_num()? as usize,
            cpu_model: s("cpu_model")?,
            git_rev: s("git_rev")?,
            source_hash: s("source_hash")?,
            rustc: s("rustc")?,
        })
    }

    /// Why two results may not be compared, if they may not: they must
    /// come from the same CPU model, core count and compiler. (Revisions
    /// differ by design — that is what a comparison is for.)
    pub fn incomparable(&self, other: &Host) -> Option<String> {
        let mut why = Vec::new();
        if self.nproc != other.nproc {
            why.push(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        if self.cpu_model != other.cpu_model {
            why.push(format!("cpu {:?} vs {:?}", self.cpu_model, other.cpu_model));
        }
        if self.rustc != other.rustc {
            why.push(format!("rustc {:?} vs {:?}", self.rustc, other.rustc));
        }
        (!why.is_empty()).then(|| why.join("; "))
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            cpu_model: "cpu".into(),
            git_rev: "a".into(),
            source_hash: "b".into(),
            rustc: "rustc 1".into(),
        }
    }

    #[test]
    fn refuses_to_compare_across_hosts() {
        let a = host();
        let mut b = host();
        b.git_rev = "other".into();
        assert_eq!(a.incomparable(&b), None, "revisions may differ");
        b.nproc = 4;
        assert!(a.incomparable(&b).unwrap().contains("nproc"));
        let mut c = host();
        c.cpu_model = "other".into();
        assert!(a.incomparable(&c).is_some());
        assert_eq!(Host::from_json(&a.to_json()), Some(a));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
