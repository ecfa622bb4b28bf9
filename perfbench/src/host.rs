//! The host and revision a result was measured on.

use dtucker::serve::JsonWriter;
use std::path::Path;

/// Writes `"host": {...}` describing this machine and the source revision.
pub fn write_host(w: &mut JsonWriter) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let flags = field("flags").unwrap_or_default();
    let vector: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| *f == "avx2" || *f == "fma" || f.starts_with("avx512"))
        .collect();
    w.key("host");
    w.begin_object();
    w.key("nproc");
    w.number_u64(
        std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
    );
    w.key("cpu_model");
    w.string(&field("model name").unwrap_or_else(|| "unknown".into()));
    w.key("vector_flags");
    w.string(&vector.join(" "));
    w.key("llc");
    w.string(&last_level_cache().unwrap_or_else(|| "unknown".into()));
    w.key("revision");
    w.string(&revision(Path::new(".")).unwrap_or_else(|| "unknown".into()));
    w.end_object();
}

/// Size of the highest-level cache cpu0 reports, e.g. `"105M (L3)"`.
fn last_level_cache() -> Option<String> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, format!("{} (L{level})", size.trim())));
        }
    }
    best.map(|(_, s)| s)
}

/// Git revision of the checkout containing `start`, read from `.git`
/// without running git; `None` outside a git checkout.
fn revision(start: &Path) -> Option<String> {
    let root = start.canonicalize().ok()?;
    let git = root
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
