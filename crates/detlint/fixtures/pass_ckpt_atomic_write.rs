// Fixture: linted as crates/ckpt/src/good.rs — the sanctioned checkpoint
// store shape. File names derive from the step counter (deterministic,
// zero-padded) and writes go through tmp + fsync + atomic rename: nothing
// here reads a clock, so nothing needs an allow.

use std::io::Write;
use std::path::{Path, PathBuf};

pub fn checkpoint_path(dir: &Path, step: u64) -> PathBuf {
    // Deterministic: a pure function of simulation progress.
    dir.join(format!("ckpt-{step:012}.ant"))
}

pub fn write_atomic(dir: &Path, step: u64, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let final_path = checkpoint_path(dir, step);
    let tmp_path = dir.join(format!("ckpt-{step:012}.ant.tmp"));
    {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}
