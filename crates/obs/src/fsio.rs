//! Crash-safe file output.
//!
//! Every finished artifact the workspace writes — `BENCH_*.json`,
//! reports, baselines, health files, checkpoints — goes through
//! [`write_atomic`]: write to a temporary file in the same directory,
//! fsync it, then rename over the destination. A crash at any point
//! leaves either the old contents or the new contents, never a torn
//! file. (The streaming `.jtb` sink is the deliberate exception: it
//! appends in place so a crash leaves a salvageable prefix — see
//! [`crate::wire::salvage_jtb`].)

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically replace `path` with `bytes`: temp file in the same
/// directory, `fsync`, rename, then a best-effort fsync of the parent
/// directory so the rename itself is durable.
///
/// # Errors
/// Propagates create/write/sync/rename errors (the temp file is
/// removed on failure, best-effort).
pub fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp~");
    let res = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return res;
    }
    let dir = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty());
    if let Ok(d) = std::fs::File::open(dir.unwrap_or_else(|| Path::new("."))) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// A new, empty directory under the system temp dir, named after the
/// calling thread (the test name, under the test harness), the process
/// id and a per-process call counter. Tests running concurrently, in
/// one process or several, never share one.
///
/// # Panics
/// If the directory cannot be created.
pub fn scratch_dir() -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    let thread = std::thread::current();
    let name: String = thread
        .name()
        .unwrap_or("anon")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let dir = std::env::temp_dir().join(format!("jem-{name}-{}-{n}", std::process::id()));
    // A directory left behind by an earlier process with the same id.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", dir.display()));
    dir
}

/// The path of `file` inside a fresh [`scratch_dir`].
pub fn scratch_path(file: &str) -> String {
    scratch_dir().join(file).to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_fresh_and_distinct() {
        let (a, b) = (scratch_dir(), scratch_dir());
        assert_ne!(a, b);
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.contains(&std::process::id().to_string()), "{name}");
        assert_eq!(std::fs::read_dir(&b).unwrap().count(), 0);
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch_dir();
        let path = dir.join("artifact.json");
        let path = path.to_str().unwrap();
        write_atomic(path, b"first").unwrap();
        assert_eq!(std::fs::read(path).unwrap(), b"first");
        write_atomic(path, b"second").unwrap();
        assert_eq!(std::fs::read(path).unwrap(), b"second");
        assert!(
            !std::path::Path::new(&format!("{path}.tmp~")).exists(),
            "temp file must not survive"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
