//! Host and build fingerprint printed with every result, and the process's
//! peak resident memory.

use std::process::Command;

/// `{"cpu_model": ..., ...}` for the host, toolchain and source tree.
pub fn fingerprint(seed: u64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    let cpus_allowed = status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let (git_rev, dirty) = match command_line("git", &["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"])
                .map(|s| !s.is_empty());
            (rev, dirty.map_or("null".to_string(), |d| d.to_string()))
        }
        None => ("unavailable".to_string(), "null".to_string()),
    };
    format!(
        "{{\"cpu_model\":{},\"cpus_allowed_list\":{},\"nproc\":{nproc},\"rustc\":{},\
         \"git_rev\":{},\"git_dirty\":{dirty},\"max_threads\":{},\"seed\":{seed}}}",
        json_str(&cpu_model),
        json_str(&cpus_allowed),
        json_str(&rustc),
        json_str(&git_rev),
        p3gm_parallel::max_threads(),
    )
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = status_field("VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// First line of a command's standard output, if it ran and succeeded.
/// Git is kept from searching above the working directory, so a run never
/// reads a repository outside its checkout.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut command = Command::new(program);
    command.args(args);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let output = command.stderr(std::process::Stdio::null()).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().next().unwrap_or("").trim().to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host-wide CPU ticks `(steal, total)` from `/proc/stat`. The share of
/// steal between two readings is the time the hypervisor gave this
/// machine's CPUs to other guests: what makes timings on a shared host
/// move together between runs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
