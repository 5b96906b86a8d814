//! Property tests: both blob-target backends behave identically to a
//! simple model under arbitrary operation sequences, and the file target
//! preserves everything across reopen.
//!
//! Each property runs [`CASES`] cases; case `seed` draws only from
//! `SeededRng::new(seed)`, and a failure names the property and the seed.

use std::collections::BTreeMap;

use mochi_util::{SeededRng, TempDir};
use mochi_warabi::target::{FileTarget, MemoryTarget};
use mochi_warabi::{BlobId, BlobTarget, WarabiError};

const CASES: u64 = 256;

/// Each seed's operations run against the memory target (up to 60 of
/// them) and the file target (up to 40), which is then reopened.
#[test]
fn targets_match_model_and_file_target_survives_reopen() {
    let replay = |target: &dyn BlobTarget, seed: u64, max_ops: usize, at: &str| {
        let mut rng = SeededRng::new(seed);
        let mut model: BTreeMap<BlobId, Vec<u8>> = BTreeMap::new();
        let mut ids: Vec<BlobId> = Vec::new();
        for _ in 0..rng.range(0, max_ops) {
            // Weights 2 : 4 : 3 : 1 : 1 for create, write, read, erase, list.
            let op = rng.range(0, 11);
            if op < 2 {
                let size = rng.range(1, 512);
                let id = target.create(size as u64).unwrap();
                model.insert(id, vec![0u8; size]);
                ids.push(id);
                continue;
            }
            if op == 10 {
                let expected: Vec<BlobId> = model.keys().copied().collect();
                assert_eq!(target.list().unwrap(), expected, "{at}");
                continue;
            }
            let Some(&id) = rng.pick(&ids) else { continue };
            // Half the offsets fall inside the largest blob, so some writes land.
            let offset = if rng.chance(0.5) { rng.range(0, 512) } else { rng.range(0, 1 << 16) };
            match op {
                2..=5 => {
                    let data: Vec<u8> =
                        (0..rng.range(0, 64)).map(|_| rng.next_u64() as u8).collect();
                    let result = target.write(id, offset as u64, &data);
                    match model.get_mut(&id) {
                        Some(blob) if offset + data.len() <= blob.len() => {
                            result.unwrap();
                            blob[offset..offset + data.len()].copy_from_slice(&data);
                        }
                        Some(_) => {
                            assert!(matches!(result, Err(WarabiError::OutOfBounds { .. })), "{at}")
                        }
                        None => assert!(matches!(result, Err(WarabiError::NoSuchBlob(_))), "{at}"),
                    }
                }
                6..=8 => {
                    let len = rng.range(0, 64);
                    let result = target.read(id, offset as u64, len as u64);
                    match model.get(&id) {
                        Some(blob) if offset + len <= blob.len() => {
                            assert_eq!(result.unwrap(), blob[offset..offset + len], "{at}");
                        }
                        Some(_) => {
                            assert!(matches!(result, Err(WarabiError::OutOfBounds { .. })), "{at}")
                        }
                        None => assert!(matches!(result, Err(WarabiError::NoSuchBlob(_))), "{at}"),
                    }
                }
                _ => assert_eq!(target.erase(id).unwrap(), model.remove(&id).is_some(), "{at}"),
            }
        }
    };
    for seed in 0..CASES {
        replay(
            &MemoryTarget::new(),
            seed,
            60,
            &format!("memory_target_matches_model, seed {seed}"),
        );

        let at = format!("file_target_matches_model_and_survives_reopen, seed {seed}");
        let dir = TempDir::new("warabi-prop").unwrap();
        let target = FileTarget::open(dir.path()).unwrap();
        replay(&target, seed, 40, &at);
        // Reopen: contents identical.
        let expected: Vec<(BlobId, Vec<u8>)> = target
            .list()
            .unwrap()
            .into_iter()
            .map(|id| (id, target.read(id, 0, target.size(id).unwrap()).unwrap()))
            .collect();
        drop(target);
        let reopened = FileTarget::open(dir.path()).unwrap();
        for (id, data) in expected {
            assert_eq!(reopened.read(id, 0, data.len() as u64).unwrap(), data, "{at}");
        }
    }
}
