//! Durable per-stream checkpoints: the v2 envelope on disk, atomic
//! rotation, restore dispatch by model kind, and crash recovery.
//!
//! Each snapshot-capable stream owns one file `<dir>/<encoded-id>.ckpt`
//! holding a tagged **v2 checkpoint envelope**
//! (`sofia-checkpoint v2` / `model <kind>` / `steps <n>` / payload — see
//! [`sofia_core::snapshot`]). Restore is dispatched on the `model` tag,
//! so SOFIA streams and durable baselines recover through the same code
//! path. Bare **v1** files (pre-envelope SOFIA checkpoints) still load
//! bit-exactly: the envelope parser recognizes the v1 header and reports
//! them as `kind = "sofia"`.
//!
//! Writes go through a temp file in the same directory followed by an
//! atomic `rename`, so a crash mid-write never damages the previous good
//! checkpoint — on restart every `.ckpt` file in the directory is either
//! the old state or the new state, never a torn mix. Stray `.ckpt.tmp`
//! files left by such a crash are explicitly ignored (and cleaned up) by
//! recovery; they can never shadow a good checkpoint because only exact
//! `.ckpt` names are ever loaded.

use crate::error::FleetError;
use crate::model::ModelHandle;
use sofia_baselines::{OnlineSgd, Smf};
use sofia_core::snapshot::{self, RestoreModel};
use sofia_core::Sofia;
use std::path::{Path, PathBuf};

/// When and where the engine checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding one `.ckpt` file per stream (created on engine
    /// start if absent).
    pub dir: PathBuf,
    /// Checkpoint a stream after this many steps since its last durable
    /// checkpoint. `1` checkpoints every step (`0` behaves as `1`);
    /// large values trade durability lag for throughput. A failed write
    /// is retried one interval later.
    pub every_steps: u64,
}

impl CheckpointPolicy {
    /// Checkpoints into `dir` every `every_steps` steps per stream.
    pub fn new(dir: impl Into<PathBuf>, every_steps: u64) -> Self {
        assert!(every_steps > 0, "checkpoint interval must be positive");
        CheckpointPolicy {
            dir: dir.into(),
            every_steps,
        }
    }
}

/// Percent-encodes a stream id into a filesystem-safe file stem.
///
/// Alphanumerics, `-`, `_`, and `.` pass through; everything else becomes
/// `%XX` per byte. The encoding is injective, so distinct stream ids
/// never collide on disk, and the output contains no path separators, so
/// ids like `../x` cannot escape the checkpoint directory.
pub fn encode_stream_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for b in id.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Inverse of [`encode_stream_id`]; `None` on malformed escapes.
pub fn decode_stream_id(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Path of a stream's checkpoint file under `dir`.
pub fn checkpoint_path(dir: &Path, stream_id: &str) -> PathBuf {
    dir.join(format!("{}.ckpt", encode_stream_id(stream_id)))
}

/// Path of the temp file a checkpoint write rotates through. Derived by
/// appending `.tmp` to the final name (never `Path::with_extension`,
/// whose last-extension semantics get surprising for encoded ids
/// containing dots).
fn temp_path(dir: &Path, stream_id: &str) -> PathBuf {
    dir.join(format!("{}.ckpt.tmp", encode_stream_id(stream_id)))
}

/// Writes `text` as `stream_id`'s checkpoint with atomic temp+rename
/// rotation.
pub fn write_checkpoint(dir: &Path, stream_id: &str, text: &str) -> Result<(), FleetError> {
    use std::io::Write as _;
    let final_path = checkpoint_path(dir, stream_id);
    // The temp file lives in the same directory so the rename cannot
    // cross a filesystem boundary (rename is only atomic within one).
    let tmp_path = temp_path(dir, stream_id);
    let mut file = std::fs::File::create(&tmp_path)?;
    file.write_all(text.as_bytes())?;
    // Flush data blocks before the rename: without this, a power loss
    // can journal the rename's metadata ahead of the data and replace
    // the previous good checkpoint with an empty/torn file. (A paranoid
    // implementation would also fsync the directory; per-stream loss on
    // that window is bounded by the checkpoint interval, so we stop at
    // the file.)
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(())
}

/// Removes a stream's checkpoint file (and any stale temp next to it)
/// from `dir`, if present. Used when a stream is deregistered — e.g.
/// migrated to another process — so a later recovery cannot resurrect
/// it here; a missing file is not an error (transient models never had
/// one).
pub fn remove_checkpoint(dir: &Path, stream_id: &str) -> Result<(), FleetError> {
    let _ = std::fs::remove_file(temp_path(dir, stream_id));
    match std::fs::remove_file(checkpoint_path(dir, stream_id)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Restores a model handle from raw checkpoint text (v2 envelope or bare
/// v1 SOFIA), dispatching on the envelope's `model` kind tag.
///
/// This is the single place the workspace's durable model kinds are
/// enumerated; adding a snapshot-capable model means adding one arm.
fn restore_from_text(text: &str) -> Result<ModelHandle, String> {
    let env = snapshot::parse(text).map_err(|e| e.to_string())?;
    let handle = match env.kind.as_str() {
        Sofia::KIND => {
            ModelHandle::durable(Sofia::restore(&env.payload).map_err(|e| e.to_string())?)
        }
        Smf::KIND => ModelHandle::durable(Smf::restore(&env.payload).map_err(|e| e.to_string())?),
        OnlineSgd::KIND => {
            ModelHandle::durable(OnlineSgd::restore(&env.payload).map_err(|e| e.to_string())?)
        }
        other => return Err(format!("unknown model kind `{other}`")),
    };
    Ok(handle.with_steps(env.steps))
}

/// Restores a model handle from checkpoint-envelope text, reporting
/// failures as [`FleetError::Corrupt`] against `stream_id`.
///
/// This is the deserialization half of the envelope's second life as a
/// **wire form**: a `sofia-net` client registers a stream over TCP by
/// sending exactly the text [`ModelHandle::checkpoint_text`] produces,
/// and the server turns it back into a servable handle here — the same
/// bit-exact path crash recovery uses.
pub fn restore_handle(stream_id: &str, text: &str) -> Result<ModelHandle, FleetError> {
    restore_from_text(text).map_err(|reason| FleetError::Corrupt {
        stream: stream_id.to_string(),
        reason,
    })
}

/// Loads one stream's checkpoint from `dir`, if present. Used by shard
/// workers to lazily restore an evicted stream on its next ingest/query.
pub fn load_stream(dir: &Path, stream_id: &str) -> Result<Option<ModelHandle>, FleetError> {
    let path = checkpoint_path(dir, stream_id);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)?;
    restore_from_text(&text)
        .map(Some)
        .map_err(|reason| FleetError::Corrupt {
            stream: stream_id.to_string(),
            reason,
        })
}

/// One recovered stream: id plus its restored model handle.
#[derive(Debug)]
pub struct RecoveredStream {
    /// Decoded stream id.
    pub id: String,
    /// Model restored bit-exactly from its checkpoint (any durable kind).
    pub handle: ModelHandle,
}

/// Loads every checkpoint under `dir`, sorted by stream id for
/// deterministic registration order. Stale `.ckpt.tmp` files from a crash
/// mid-write are removed (they are possibly-torn staging files, never
/// authoritative state, and must not shadow the good `.ckpt` next to
/// them); malformed `.ckpt` files are hard errors (a serving engine must
/// not silently drop a stream's state).
pub fn recover_all(dir: &Path) -> Result<Vec<RecoveredStream>, FleetError> {
    let mut recovered = Vec::new();
    if !dir.exists() {
        return Ok(recovered);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if name.ends_with(".ckpt.tmp") {
            // A crash between write and rename left a torn temp file; the
            // previous good checkpoint (if any) is still intact.
            let _ = std::fs::remove_file(&path);
            continue;
        }
        let Some(stem) = name.strip_suffix(".ckpt") else {
            continue;
        };
        let id = decode_stream_id(stem).ok_or_else(|| FleetError::Corrupt {
            stream: stem.to_string(),
            reason: "undecodable file name".to_string(),
        })?;
        let text = std::fs::read_to_string(&path)?;
        let handle = restore_from_text(&text).map_err(|reason| FleetError::Corrupt {
            stream: id.clone(),
            reason,
        })?;
        recovered.push(RecoveredStream { id, handle });
    }
    recovered.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sofia-fleet-durability-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A tiny durable model: OnlineSGD with fixed 2×2 factors.
    fn small_sgd(seed: u64) -> OnlineSgd {
        let f = |s: u64| {
            sofia_tensor::Matrix::from_fn(2, 2, |i, j| 1.0 + (i + 2 * j) as f64 * 0.1 + s as f64)
        };
        OnlineSgd::new(vec![f(seed), f(seed + 1)], 0.1)
    }

    #[test]
    fn id_encoding_roundtrips() {
        for id in [
            "plain",
            "with/slash",
            "dots.and-dashes_ok",
            "spaces and % signs",
            "unicode-ßµ",
            "..",
            "../escape",
            "",
        ] {
            let enc = encode_stream_id(id);
            assert!(
                enc.bytes().all(|b| b.is_ascii_alphanumeric()
                    || b == b'-'
                    || b == b'_'
                    || b == b'.'
                    || b == b'%'),
                "unsafe byte in {enc:?}"
            );
            assert_eq!(decode_stream_id(&enc).as_deref(), Some(id));
        }
    }

    #[test]
    fn distinct_ids_never_collide() {
        let ids = ["a/b", "a%2Fb", "a_b", "a b", "a%b"];
        let encs: Vec<String> = ids.iter().map(|i| encode_stream_id(i)).collect();
        for i in 0..encs.len() {
            for j in i + 1..encs.len() {
                assert_ne!(encs[i], encs[j], "{} vs {}", ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn tricky_ids_map_to_unique_in_dir_paths() {
        // Ids with separators, traversal attempts, spaces, non-ASCII, and
        // near-collisions must each get their own file *inside* dir.
        let dir = PathBuf::from("/ckpt");
        let ids = [
            "a/b",
            "a%2Fb",
            "..",
            "../a",
            ". .",
            "käse",
            "a b",
            "a.ckpt",
            "a.ckpt.tmp",
            "a",
        ];
        let mut seen = HashSet::new();
        for id in ids {
            let p = checkpoint_path(&dir, id);
            assert_eq!(p.parent(), Some(dir.as_path()), "{id:?} escaped: {p:?}");
            assert!(seen.insert(p.clone()), "collision on {p:?} for {id:?}");
            // The temp file stays alongside and distinct too.
            let t = temp_path(&dir, id);
            assert_eq!(t.parent(), Some(dir.as_path()));
            assert!(seen.insert(t), "temp collision for {id:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn encoding_roundtrips_arbitrary_ids(bytes in prop::collection::vec(0u8..128, 0..24)) {
            // Drawn from the full ASCII range (so slashes, dots, controls,
            // spaces, and '%' all appear), plus a non-ASCII suffix.
            let id: String = bytes.iter().map(|&b| b as char).collect::<String>() + "µ";
            let enc = encode_stream_id(&id);
            prop_assert_eq!(decode_stream_id(&enc).as_deref(), Some(id.as_str()));
            // No separators survive encoding: the file stays inside dir.
            prop_assert!(!enc.contains('/'));
            let p = checkpoint_path(Path::new("/d"), &id);
            prop_assert_eq!(p.parent(), Some(Path::new("/d")));
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(decode_stream_id("%zz"), None);
        assert_eq!(decode_stream_id("%4"), None);
        assert_eq!(decode_stream_id("ok%20fine"), Some("ok fine".into()));
    }

    #[test]
    fn write_is_atomic_and_recoverable() {
        let dir = tmpdir("atomic");
        write_checkpoint(&dir, "s/1", "sofia-checkpoint v1\ngarbage-for-this-test\n").unwrap();
        // The temp file must not linger.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        // Overwrite rotates atomically.
        write_checkpoint(&dir, "s/1", "second\n").unwrap();
        let text = std::fs::read_to_string(checkpoint_path(&dir, "s/1")).unwrap();
        assert_eq!(text, "second\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_skips_temp_and_flags_corrupt() {
        let dir = tmpdir("recover");
        // A torn temp file from a crash mid-write: cleaned up, not loaded.
        std::fs::write(dir.join("torn.ckpt.tmp"), "half a checkpo").unwrap();
        assert!(recover_all(&dir).unwrap().is_empty());
        assert!(!dir.join("torn.ckpt.tmp").exists());
        // A malformed real checkpoint is a hard error.
        std::fs::write(dir.join("bad.ckpt"), "not a checkpoint\n").unwrap();
        assert!(matches!(recover_all(&dir), Err(FleetError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_temp_never_shadows_the_good_checkpoint() {
        // The satellite case: a crash mid-rotation leaves BOTH the good
        // `.ckpt` and a torn `.ckpt.tmp` for the *same* stream. Recovery
        // must load the good state untouched and clean up the temp.
        let dir = tmpdir("shadow");
        let mut model = small_sgd(7);
        let slice = sofia_tensor::ObservedTensor::fully_observed(sofia_tensor::DenseTensor::full(
            sofia_tensor::Shape::new(&[2, 2]),
            1.5,
        ));
        use sofia_core::traits::StreamingFactorizer as _;
        model.step(&slice);
        let handle = ModelHandle::durable(model.clone()).with_steps(1);
        write_checkpoint(&dir, "s1", &handle.checkpoint_text().unwrap()).unwrap();
        std::fs::write(temp_path(&dir, "s1"), "sofia-checkpoint v2\nmodel onl").unwrap();

        let recovered = recover_all(&dir).unwrap();
        assert_eq!(recovered.len(), 1, "exactly the good checkpoint loads");
        assert_eq!(recovered[0].id, "s1");
        assert_eq!(recovered[0].handle.model_steps(), 1);
        assert!(!temp_path(&dir, "s1").exists(), "temp cleaned up");
        // The restored model is bit-exact against the original.
        let mut restored_inner = match load_stream(&dir, "s1").unwrap() {
            Some(h) => h,
            None => panic!("stream exists"),
        };
        let a = model.step(&slice);
        let b = restored_inner.step(&slice);
        assert_eq!(a.completed.data(), b.completed.data());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_dispatches_by_kind_and_rejects_unknown() {
        let dir = tmpdir("dispatch");
        write_checkpoint(
            &dir,
            "sgd",
            &ModelHandle::durable(small_sgd(1))
                .checkpoint_text()
                .unwrap(),
        )
        .unwrap();
        std::fs::write(
            checkpoint_path(&dir, "alien"),
            "sofia-checkpoint v2\nmodel from-the-future\nsteps 3\npayload\n",
        )
        .unwrap();
        match recover_all(&dir) {
            Err(FleetError::Corrupt { stream, reason }) => {
                assert_eq!(stream, "alien");
                assert!(reason.contains("unknown model kind"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(checkpoint_path(&dir, "alien")).unwrap();
        let recovered = recover_all(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].handle.name(), "OnlineSGD");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_stream_missing_is_none() {
        let dir = tmpdir("lazy-missing");
        assert!(load_stream(&dir, "nope").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("sofia-fleet-never-created-dir");
        assert!(recover_all(&dir).unwrap().is_empty());
    }
}
