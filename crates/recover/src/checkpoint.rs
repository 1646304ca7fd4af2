//! Checkpoint files: durable `slicing.serve-checkpoint/v1` snapshots of a
//! running [`MonitorHub`] (an [`OnlineMonitor`] is a hub with one tenant),
//! written so a killed monitor or service can restart mid-stream and
//! converge to the same verdicts as an uninterrupted run.
//!
//! This is the file layer over [`slicing_detect::checkpoint`]'s codec:
//!
//! - [`write_hub_checkpoint`] serializes the hub's exported state (plus
//!   the metrics-stream cursor) and installs it *atomically* through
//!   [`rotate_and_write`] — to a `.tmp` sibling first, then renamed over
//!   the target — so a crash mid-write leaves the previous checkpoint
//!   intact rather than a truncated JSON document;
//! - [`load_hub_checkpoint`] reads a file back and decodes it in one
//!   pass, rejecting everything the observe schema registry rejects;
//! - [`resume_monitor`] rebuilds a live monitor from the loaded state and
//!   re-registers the caller's watch clauses (closures cannot be
//!   serialized; the clause set is cross-validated against the
//!   checkpointed one).

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use slicing_computation::BuildError;
use slicing_detect::checkpoint::{decode_str, encode};
use slicing_detect::{HubState, MonitorHub, OnlineMonitor};
use slicing_predicates::LocalPredicate;

/// Writes a [`MonitorHub`]'s state as one `slicing.serve-checkpoint/v1`
/// line, keeping the last `keep` generations; see [`rotate_and_write`].
///
/// # Errors
///
/// Propagates filesystem errors; `keep == 0` is rejected as
/// [`io::ErrorKind::InvalidInput`].
pub fn write_hub_checkpoint(
    path: &Path,
    hub: &MonitorHub,
    metrics_seq: u64,
    keep: usize,
) -> io::Result<()> {
    let text = encode(&hub.export_state(), metrics_seq);
    rotate_and_write(path, &text, keep)?;
    slicing_observe::counter("recover.checkpoints_written", 1);
    Ok(())
}

/// The rotation sibling holding the `gen`-th previous checkpoint
/// (`gen >= 1`): `checkpoint.json` → `checkpoint.json.1`, and so on.
fn generation_path(path: &Path, generation: usize) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".{generation}"));
    PathBuf::from(name)
}

/// Atomically installs `text` as the newest generation of `path`, keeping
/// the last `keep` generations and deleting everything older.
///
/// The newest checkpoint is always at `path` itself; the previous one at
/// `path.1`, then `path.2`, and so on up to `path.(keep-1)`. Every
/// install is a rename (the text lands in a `.tmp` sibling first), so a
/// crash at any point leaves each surviving generation either complete or
/// absent — never truncated. A long-running monitor with
/// `--checkpoint-every` therefore uses bounded disk instead of growing
/// without limit.
///
/// # Errors
///
/// `keep == 0` is [`io::ErrorKind::InvalidInput`]; other errors are
/// filesystem failures from the shift, write, or rename.
pub fn rotate_and_write(path: &Path, text: &str, keep: usize) -> io::Result<()> {
    if keep == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "checkpoint retention must keep at least one file",
        ));
    }
    // Shift surviving generations up, oldest first, so each rename's
    // target slot is already vacant or about to be overwritten.
    for generation in (1..keep).rev() {
        let from = if generation == 1 {
            path.to_path_buf()
        } else {
            generation_path(path, generation - 1)
        };
        if from.exists() {
            fs::rename(&from, generation_path(path, generation))?;
        }
    }
    // Drop generations beyond the retention window. Scanning just past
    // the window (rather than globbing) is enough: retention shrinking by
    // more than one step at a time still converges, one tail file per
    // write.
    let mut generation = keep;
    loop {
        let stale = generation_path(path, generation);
        if !stale.exists() {
            break;
        }
        fs::remove_file(&stale)?;
        generation += 1;
    }
    let tmp = path.with_extension("tmp");
    let mut file = fs::File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.write_all(b"\n")?;
    drop(file);
    fs::rename(&tmp, path)
}

/// Loads and decodes a `slicing.serve-checkpoint/v1` file written by
/// [`write_hub_checkpoint`] in one pass ([`decode_str`]), which rejects
/// everything the schema registry's validation (what `slicing validate`
/// applies) rejects and names a retired format. The caller rebuilds the
/// hub with [`MonitorHub::from_state`] and re-registers every tenant
/// predicate via [`MonitorHub::restore_tenant`] using the sources in the
/// state.
///
/// # Errors
///
/// Filesystem errors are returned as-is; malformed or invalid documents
/// surface as [`io::ErrorKind::InvalidData`] carrying the codec's
/// [`BuildError::InvalidState`] detail.
pub fn load_hub_checkpoint(path: &Path) -> io::Result<(HubState, u64)> {
    let text = fs::read_to_string(path)?;
    decode_str(text.trim()).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Rebuilds a live monitor from a loaded checkpoint state and re-registers
/// the fault predicate's clauses.
///
/// The clause set is matched to the checkpointed one by process and label
/// ([`MonitorHub::restore_tenant`]), so a predicate that differs from the
/// one the history was monitored under is rejected instead of silently
/// corrupting future verdicts.
///
/// # Errors
///
/// Returns [`BuildError::InvalidState`] if the state is internally
/// inconsistent, holds more than one tenant, or the clauses do not match.
pub fn resume_monitor(
    state: &HubState,
    clauses: Vec<LocalPredicate>,
) -> Result<OnlineMonitor, BuildError> {
    let monitor = OnlineMonitor::from_hub(MonitorHub::from_state(state)?, clauses)?;
    slicing_observe::counter("recover.monitors_resumed", 1);
    Ok(monitor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("slicing-rotate-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read(path: &Path) -> String {
        fs::read_to_string(path).unwrap()
    }

    #[test]
    fn rotation_keeps_the_last_k_generations() {
        let dir = tmp_dir("keep");
        let path = dir.join("checkpoint.json");
        for i in 0..6 {
            rotate_and_write(&path, &format!("gen{i}"), 3).unwrap();
        }
        assert_eq!(read(&path), "gen5\n");
        assert_eq!(read(&generation_path(&path, 1)), "gen4\n");
        assert_eq!(read(&generation_path(&path, 2)), "gen3\n");
        assert!(
            !generation_path(&path, 3).exists(),
            "older generations deleted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keep_one_matches_the_unrotated_behavior() {
        let dir = tmp_dir("one");
        let path = dir.join("checkpoint.json");
        rotate_and_write(&path, "a", 1).unwrap();
        rotate_and_write(&path, "b", 1).unwrap();
        assert_eq!(read(&path), "b\n");
        assert!(!generation_path(&path, 1).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shrinking_retention_cleans_up_stale_generations() {
        let dir = tmp_dir("shrink");
        let path = dir.join("checkpoint.json");
        for i in 0..5 {
            rotate_and_write(&path, &format!("gen{i}"), 5).unwrap();
        }
        rotate_and_write(&path, "gen5", 2).unwrap();
        assert_eq!(read(&path), "gen5\n");
        assert_eq!(read(&generation_path(&path, 1)), "gen4\n");
        for generation in 2..6 {
            assert!(
                !generation_path(&path, generation).exists(),
                "generation {generation}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_retention_is_rejected() {
        let dir = tmp_dir("zero");
        let path = dir.join("checkpoint.json");
        let err = rotate_and_write(&path, "x", 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hub_checkpoints_rotate_and_reload() {
        use slicing_computation::Value;
        use slicing_predicates::{Conjunctive, LocalPredicate};

        let dir = tmp_dir("hub");
        let path = dir.join("serve.json");
        let mut hub = MonitorHub::new(2);
        let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = hub.declare_var(1, "x", Value::Int(0)).unwrap();
        let pred = || {
            Conjunctive::new(vec![
                LocalPredicate::int(a, "x@0 > 0", |v| v > 0),
                LocalPredicate::int(b, "x@1 > 0", |v| v > 0),
            ])
        };
        hub.add_tenant("t", &pred(), "x@0 > 0 && x@1 > 0").unwrap();
        for i in 0..3 {
            hub.observe(i % 2, &[(if i % 2 == 0 { a } else { b }, Value::Int(1))])
                .unwrap();
            write_hub_checkpoint(&path, &hub, i as u64, 2).unwrap();
        }
        assert!(generation_path(&path, 1).exists());
        assert!(!generation_path(&path, 2).exists());
        let (state, seq) = load_hub_checkpoint(&path).unwrap();
        assert_eq!(seq, 2);
        let mut resumed = MonitorHub::from_state(&state).unwrap();
        resumed.restore_tenant("t", &pred()).unwrap();
        assert!(resumed.unrestored_clauses().is_empty());
        assert_eq!(resumed.export_state(), hub.export_state());
        fs::remove_dir_all(&dir).unwrap();
    }
}
