//! Crash-safe filesystem writes: the workspace's **single** atomic
//! tmp + `fsync` + rename implementation.
//!
//! Every durable artifact — engine checkpoints, job manifests, result
//! files, traces — must land on disk through this module, so a kill at
//! any byte leaves either the old file or the complete new one, never a
//! hybrid. The invariant is machine-enforced: `pacga-audit` rule **A4**
//! rejects direct `fs::write` / `File::create` calls in the service
//! crate and in `checkpoint.rs`; this file is the sole allowlisted
//! implementation site (DESIGN.md §11).
//!
//! Protocol, in order:
//!
//! 1. the payload is streamed into `<path>.tmp` and `fsync`ed;
//! 2. with [`atomic_write_rotate`], any previous file at `path` is first
//!    renamed aside to `rotate_to` (the two-snapshot checkpoint scheme:
//!    a crash between rotate and install still leaves one good file);
//! 3. `<path>.tmp` is renamed over `path`;
//! 4. the parent directory entry is `fsync`ed (best-effort — some
//!    filesystems reject directory fsync) so the rename itself survives
//!    a power cut.

use std::io::{self, Write};
use std::path::Path;

/// Atomically replaces `path` with the bytes produced by `write`.
///
/// `write` receives a buffered writer over the temp file; any error it
/// returns (or any I/O error in the protocol) aborts the install, leaves
/// `path` untouched and removes the temp file (`<path>.tmp`).
pub fn atomic_write_with(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    atomic_write_rotate(path, None, write)
}

/// [`atomic_write_with`] for a ready byte slice.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_rotate(path, None, |w| w.write_all(bytes))
}

/// Full protocol: with `rotate_to`, the previous file at `path` is
/// renamed aside before the new one is installed — the fallback snapshot
/// the job manager's recovery chain reads when the newest one is torn.
pub fn atomic_write_rotate(
    path: &Path,
    rotate_to: Option<&Path>,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    // ALLOW-A4: this is the atomic-write implementation itself.
    let file = std::fs::File::create(&tmp)?;
    let installed = write_synced(file, write).and_then(|()| {
        if let Some(prev) = rotate_to {
            if path.exists() {
                std::fs::rename(path, prev)?;
            }
        }
        std::fs::rename(&tmp, path)
    });
    if let Err(e) = installed {
        // Best-effort: the error that stopped the install is the one to
        // report.
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent() {
        // Persist the rename: fsync the directory entry. Best-effort on
        // filesystems that reject directory fsync.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Streams `write` into `file` through a buffer, then `fsync`s it.
fn write_synced(
    mut file: std::fs::File,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let mut buf = io::BufWriter::new(&mut file);
    write(&mut buf)?;
    buf.flush()?;
    drop(buf);
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pacga-fsx-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn write_replaces_and_cleans_tmp() {
        let dir = tmp_dir("replace");
        let path = dir.join("value.json");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!path.with_extension("tmp").exists(), "tmp consumed by rename");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_writer_leaves_target_untouched() {
        let dir = tmp_dir("fail");
        let path = dir.join("value.json");
        atomic_write(&path, b"good").unwrap();
        let err = atomic_write_with(&path, |_| Err(io::Error::other("payload failure")));
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"good", "old contents survive");
        assert!(!path.with_extension("tmp").exists(), "tmp removed on error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_removes_tmp() {
        let dir = tmp_dir("rename");
        // A non-empty directory cannot be renamed over.
        let path = dir.join("taken");
        std::fs::create_dir_all(path.join("inside")).unwrap();
        assert!(atomic_write(&path, b"bytes").is_err());
        assert!(path.join("inside").is_dir(), "target untouched");
        assert!(!path.with_extension("tmp").exists(), "tmp removed on error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotate_preserves_previous_generation() {
        let dir = tmp_dir("rotate");
        let path = dir.join("ckpt");
        let prev = dir.join("ckpt.prev");
        atomic_write_rotate(&path, Some(&prev), |w| w.write_all(b"gen1")).unwrap();
        assert!(!prev.exists(), "nothing to rotate on first write");
        atomic_write_rotate(&path, Some(&prev), |w| w.write_all(b"gen2")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"gen2");
        assert_eq!(std::fs::read(&prev).unwrap(), b"gen1");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
