//! The on-disk checkpoint store: atomic writes, deterministic names,
//! last-K rotation, and newest-valid fallback recovery. Whoever runs the
//! simulation owns the store and decides when to write; the engine only
//! hands over snapshots (`AntonSimulation::write_checkpoint(&store)`).
//!
//! **Atomicity.** A checkpoint is encoded in memory, written to
//! `ckpt-<step>.ant.tmp`, fsynced, and only then renamed to its final
//! `ckpt-<step>.ant` name. `rename(2)` is atomic on every POSIX
//! filesystem, so a crash at any instant leaves either the complete new
//! file or no new file — never a partially-written `.ant`. Leftover
//! `.tmp` files are invisible to recovery (the scan matches the final
//! suffix only).
//!
//! **Names.** Files are named by the zero-padded step counter, so the
//! lexicographic order is the step order and the name is a pure function
//! of simulation progress — never of wall-clock time, which would make
//! recovery order host-dependent (clippy refuses that shape under rule
//! D4; see the fixture `fail_ckpt_wallclock_name.rs`).
//!
//! **Rotation.** After each successful write the oldest files beyond
//! `keep` are pruned, so the directory holds `ckpt-*.ant` files and
//! nothing else.
//!
//! **Recovery.** [`CheckpointStore::latest_valid`] lists the directory,
//! scans files newest to oldest and returns the first one that loads
//! cleanly (full checksum verification), so a corrupted newest checkpoint
//! falls back to the previous valid one.

use crate::error::CkptError;
use crate::snapshot::Snapshot;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Suffix of a finalized checkpoint file.
const SUFFIX: &str = ".ant";
/// Prefix of every checkpoint file name.
const PREFIX: &str = "ckpt-";

/// A directory of rotated checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

/// What one successful [`CheckpointStore::write`] did.
#[derive(Clone, Debug)]
pub struct WriteReceipt {
    /// Final path of the new checkpoint.
    pub path: PathBuf,
    /// Encoded file size in bytes.
    pub bytes: u64,
    /// Checkpoints rotated out by this write.
    pub pruned: Vec<PathBuf>,
}

/// Load and fully verify one checkpoint file.
pub fn load_file(path: &Path) -> Result<Snapshot, CkptError> {
    let bytes = fs::read(path)?;
    Snapshot::decode(&bytes)
}

/// Write `bytes` to `path` atomically: the data lands in `<path>.tmp`, is
/// fsynced, and only then renamed over the final name. `rename(2)` is
/// atomic on every POSIX filesystem, so a crash at any instant leaves
/// either the complete new file or the previous one — never a torn write.
/// This is the one sanctioned tmp+fsync+rename implementation in the
/// workspace: the checkpoint store's snapshot writes go through it, and
/// so does `anton-fleet`'s queue-state persistence.
pub fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

impl CheckpointStore {
    /// Open a store rooted at `dir`, creating the directory if needed.
    /// `keep` is clamped to at least 1 (a store that keeps nothing could
    /// never recover anything).
    pub fn create(dir: impl Into<PathBuf>, keep: usize) -> Result<CheckpointStore, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            keep: keep.max(1),
        })
    }

    /// Open a store over an existing directory without creating anything
    /// (resume path: the directory must already hold checkpoints).
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> CheckpointStore {
        CheckpointStore {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Final path of the checkpoint for `step`: zero-padded so the
    /// lexicographic name order is the numeric step order.
    pub fn checkpoint_path(&self, step: u64) -> PathBuf {
        self.dir.join(format!("{PREFIX}{step:012}{SUFFIX}"))
    }

    /// All finalized checkpoints in the directory, sorted by ascending
    /// step. `.tmp` leftovers and foreign files are ignored.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>, CkptError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let Some(stem) = name
                .strip_prefix(PREFIX)
                .and_then(|s| s.strip_suffix(SUFFIX))
            else {
                continue;
            };
            let Ok(step) = stem.parse::<u64>() else {
                continue;
            };
            out.push((step, entry.path()));
        }
        // read_dir order is filesystem-dependent; the sort restores the
        // deterministic step order.
        out.sort_unstable_by_key(|(step, _)| *step);
        Ok(out)
    }

    /// Write `snap` atomically, then rotate.
    pub fn write(&self, snap: &Snapshot) -> Result<WriteReceipt, CkptError> {
        let bytes = snap.encode();
        let final_path = self.checkpoint_path(snap.step);
        atomic_write_bytes(&final_path, &bytes)?;

        let entries = self.list()?;
        let excess = entries.len().saturating_sub(self.keep);
        let mut pruned = Vec::new();
        for (_, path) in entries.into_iter().take(excess) {
            // Never prune the file just written, even with keep=1 and a
            // rewound step counter producing an unexpected order.
            if path == final_path {
                break;
            }
            fs::remove_file(&path)?;
            pruned.push(path);
        }

        Ok(WriteReceipt {
            path: final_path,
            bytes: bytes.len() as u64,
            pruned,
        })
    }

    /// The newest checkpoint that loads cleanly, with full checksum
    /// verification; corrupted or truncated files fall through to the
    /// next-newest. Errors with [`CkptError::NoValidCheckpoint`] when the
    /// directory holds no loadable checkpoint at all.
    pub fn latest_valid(&self) -> Result<(PathBuf, Snapshot), CkptError> {
        let entries = self.list()?;
        for (_, path) in entries.iter().rev() {
            if let Ok(snap) = load_file(path) {
                return Ok((path.clone(), snap));
            }
        }
        Err(CkptError::NoValidCheckpoint {
            dir: self.dir.display().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64) -> Snapshot {
        Snapshot {
            step,
            fingerprint: 0xabcd,
            n_atoms: 2,
            state: vec![7u8; 80],
            counters: vec![step; 13],
            trace_dropped: [0, 0],
            match_ref: vec![9u8; 24],
        }
    }

    fn temp_store(tag: &str, keep: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!(
            "anton-ckpt-store-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::create(dir, keep).unwrap()
    }

    #[test]
    fn write_load_roundtrip() {
        let store = temp_store("roundtrip", 3);
        let snap = sample(16);
        let receipt = store.write(&snap).unwrap();
        assert_eq!(receipt.bytes, snap.encode().len() as u64);
        assert_eq!(load_file(&receipt.path).unwrap(), snap);
        let (path, latest) = store.latest_valid().unwrap();
        assert_eq!(path, receipt.path);
        assert_eq!(latest, snap);
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn rotation_leaves_exactly_the_last_k_checkpoint_files() {
        let store = temp_store("rotate", 2);
        for step in [16u64, 32, 48, 64] {
            store.write(&sample(step)).unwrap();
        }
        let mut names: Vec<String> = fs::read_dir(&store.dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["ckpt-000000000048.ant", "ckpt-000000000064.ant"]);
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn corrupted_newest_falls_back_to_previous_valid() {
        let store = temp_store("fallback", 4);
        store.write(&sample(16)).unwrap();
        store.write(&sample(32)).unwrap();
        // Flip one payload bit in the newest file.
        let newest = store.checkpoint_path(32);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        assert_eq!(load_file(&newest).unwrap_err().kind(), "checksum_mismatch");
        let (path, snap) = store.latest_valid().unwrap();
        assert_eq!(path, store.checkpoint_path(16));
        assert_eq!(snap.step, 16);
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn tmp_leftovers_and_foreign_files_are_invisible() {
        let store = temp_store("tmp", 3);
        store.write(&sample(16)).unwrap();
        // A torn write that never reached the rename, plus garbage that
        // apes the name pattern badly.
        fs::write(store.dir.join("ckpt-000000000032.ant.tmp"), b"torn").unwrap();
        fs::write(store.dir.join("notackpt.bin"), b"junk").unwrap();
        let steps: Vec<u64> = store.list().unwrap().iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, [16]);
        let (_, snap) = store.latest_valid().unwrap();
        assert_eq!(snap.step, 16);
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn atomic_write_bytes_replaces_whole_files_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!(
            "anton-ckpt-atomic-write-test-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queue.ant");
        atomic_write_bytes(&path, b"first revision").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first revision");
        // Overwrite: the replacement is whole-file, never an append or a
        // partial in-place update.
        atomic_write_bytes(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // The intermediate temp name never survives a completed write.
        assert!(!dir.join("queue.ant.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_reports_no_valid_checkpoint() {
        let store = temp_store("empty", 3);
        assert_eq!(
            store.latest_valid().unwrap_err().kind(),
            "no_valid_checkpoint"
        );
        let _ = fs::remove_dir_all(&store.dir);
    }
}
