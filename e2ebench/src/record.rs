//! The run record: operation/check ledger, metric list, summary
//! statistics, provenance and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Why a run stopped early: a public-API call returned `Err`.
#[derive(Debug)]
pub(crate) struct Abort(pub(crate) String);

/// Counts every public-API call that returns a `Result`, and every
/// correctness check, against the number attempted. The denominators
/// depend on the workload and its seed only, never on the clock.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub(crate) ops_attempted: u64,
    pub(crate) ops_failed: u64,
    pub(crate) checks_attempted: u64,
    pub(crate) checks_failed: u64,
    pub(crate) errors: Vec<String>,
}

impl Ledger {
    /// Account one fallible call; an `Err` aborts the run.
    pub(crate) fn op<T>(&mut self, what: &str, r: em_core::Result<T>) -> Result<T, Abort> {
        self.ops_attempted += 1;
        r.map_err(|e| {
            self.ops_failed += 1;
            let msg = format!("{what}: {e}");
            self.errors.push(msg.clone());
            Abort(msg)
        })
    }

    /// Account one correctness check.
    pub(crate) fn check(&mut self, what: &str, ok: bool) {
        self.checks_attempted += 1;
        if !ok {
            self.checks_failed += 1;
            self.errors.push(format!("check failed: {what}"));
        }
    }

    pub(crate) fn attempted(&self) -> u64 {
        self.ops_attempted + self.checks_attempted
    }

    pub(crate) fn failed(&self) -> u64 {
        self.ops_failed + self.checks_failed
    }

    /// `ok_frac`: calls and checks that succeeded over those attempted.
    pub(crate) fn ok_frac(&self) -> f64 {
        let attempted = self.attempted().max(1) as f64;
        (attempted - self.failed() as f64) / attempted
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
    /// Samples the value summarizes (1 for a count or a single reading).
    pub(crate) samples: usize,
}

/// Metrics in the order they were pushed.
#[derive(Debug, Default)]
pub(crate) struct Metrics(pub(crate) Vec<Metric>);

impl Metrics {
    pub(crate) fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub(crate) fn json(&self, with_samples: bool, omit: &[&str]) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|m| !omit.contains(&m.name))
            .map(|m| {
                let samples = if with_samples {
                    format!(", \"samples\": {}", m.samples)
                } else {
                    String::new()
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// JSON string literal (the strings printed here are plain ASCII
/// names, messages and hex digests; quotes and control bytes are
/// escaped anyway).
pub(crate) fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median (mean of the middle two for even counts).
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile between closest ranks.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub(crate) fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Least-squares slope of `ln t` against `ln n`: the scaling exponent
/// of a stage measured at several sizes.
pub(crate) fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let xs: Vec<f64> = points.iter().map(|p| p.0.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.max(1e-9).ln()).collect();
    let (mx, my) = (mean(&xs), mean(&ys));
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// `VmHWM` of this process in MB (peak resident set).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a 64 over a byte stream, used for report and source digests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Where the numbers came from: code identity and hardware.
#[derive(Debug)]
pub(crate) struct Provenance {
    pub(crate) commit: String,
    pub(crate) source_digest: String,
    pub(crate) simd_tier: &'static str,
    pub(crate) threads: usize,
    pub(crate) nproc: usize,
    pub(crate) arch: &'static str,
}

impl Provenance {
    pub(crate) fn detect(root: &Path, threads: usize) -> Self {
        Provenance {
            commit: git_commit(root),
            source_digest: tree_digest(root, &["crates", "vendor", "Cargo.lock"]),
            simd_tier: em_vector::simd_tier().name(),
            threads,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            arch: std::env::consts::ARCH,
        }
    }

    pub(crate) fn json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"source_digest\": {}, \"simd_tier\": {}, \"threads\": {}, \
             \"nproc\": {}, \"arch\": {}}}",
            jstr(&self.commit),
            jstr(&self.source_digest),
            jstr(self.simd_tier),
            self.threads,
            self.nproc,
            jstr(self.arch)
        )
    }
}

/// `git rev-parse HEAD`, suffixed `-dirty` when tracked files differ
/// from it. An exported source tree without `.git` has no commit; its
/// identity is the source digest alone.
fn git_commit(root: &Path) -> String {
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    if !root.join(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    match run(&["rev-parse", "HEAD"]) {
        Some(head) => match run(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(status) if status.is_empty() => head,
            Some(_) => format!("{head}-dirty"),
            None => format!("{head}-unknown-status"),
        },
        None => "unavailable".to_string(),
    }
}

/// FNV-1a over the sorted relative paths and bytes of every file under
/// the given top-level entries (build output and dot-directories
/// skipped). Over `crates/`, `vendor/` and `Cargo.lock` it identifies
/// the code a run measured.
pub(crate) fn tree_digest(root: &Path, tops: &[&str]) -> String {
    let mut files = Vec::new();
    for top in tops {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h.bytes(rel.to_string_lossy().as_bytes());
        match std::fs::read(f) {
            Ok(bytes) => h.u64(bytes.len() as u64).bytes(&bytes),
            Err(_) => h.bytes(b"<unreadable>"),
        };
    }
    h.hex()
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}
