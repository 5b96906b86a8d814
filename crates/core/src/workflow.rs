//! Synthetic HEPnOS/NOvA-style workflow (paper §1).
//!
//! "The high-energy physics NOvA workflow … presents steps with vastly
//! different I/O patterns. Our work in autotuning HEPnOS showed that the
//! best configuration of the service for one step of the workflow is not
//! necessarily the best for other steps." [`sharded`] generates a
//! two-step workload with exactly that property:
//!
//! * ingest — a storm of small batched puts (event ingestion), spread
//!   over K databases;
//! * ordered analysis — globally ordered scans that merge across the
//!   shards and fetch every value.
//!
//! Experiment E11 and the `hepnos_workflow` example run it against static
//! configurations and a dynamically reconfigured service and compare
//! makespans.

/// The workflow over K databases, with a *globally ordered* analysis
/// scan that must merge across shards. The two phases have opposite
/// optimal shard counts — many shards keep each LSM small during ingest
/// (fewer flushes per stripe, fewer compaction tiers for a byte to be
/// rewritten through); one shard minimizes scatter-gather RPCs during
/// ordered analysis — which is the paper's §1 motivation for per-step
/// reconfiguration.
pub mod sharded {
    use std::collections::VecDeque;

    use mochi_bedrock::{BedrockServer, ProviderSpec};
    use mochi_margo::MargoRuntime;
    use mochi_util::time::Stopwatch;
    use mochi_yokan::DatabaseHandle;

    /// Ingest-tuned shard config: small memtable, narrow compaction tiers
    /// (the durability-oriented tuning that makes maintenance cost —
    /// one table write and `sync_data` per 16 KiB — visible).
    pub fn ingest_shard_config() -> serde_json::Value {
        serde_json::json!({"backend": "lsm", "memtable_bytes": 16384, "max_tables": 3})
    }

    /// Scan-tuned shard config: big memtable, no compaction churn.
    pub fn scan_shard_config() -> serde_json::Value {
        serde_json::json!({"backend": "lsm", "memtable_bytes": 67108864, "max_tables": 8})
    }

    /// Ingests `events` fixed-size values round-robin over the shards in
    /// batched `put_multi` calls; returns seconds taken.
    pub fn ingest(handles: &[DatabaseHandle], events: usize, value_size: usize) -> f64 {
        let stopwatch = Stopwatch::start();
        let value = vec![0xEEu8; value_size];
        let mut batches: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); handles.len()];
        let flush = |batches: &mut Vec<Vec<(Vec<u8>, Vec<u8>)>>| {
            for (shard, batch) in batches.iter_mut().enumerate() {
                if !batch.is_empty() {
                    let refs: Vec<(&[u8], &[u8])> =
                        batch.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
                    handles[shard].put_multi(&refs).unwrap();
                    batch.clear();
                }
            }
        };
        for event in 0..events {
            batches[event % handles.len()]
                .push((format!("event/{event:08}").into_bytes(), value.clone()));
            if event % 64 == 63 {
                flush(&mut batches);
            }
        }
        flush(&mut batches);
        stopwatch.elapsed_secs()
    }

    /// Runs `scans` globally ordered full scans (merge across shards with
    /// per-shard cursors, scatter-gather gets); asserts every scan sees
    /// exactly `events` keys. Returns seconds taken.
    pub fn ordered_analysis(
        handles: &[DatabaseHandle],
        scans: usize,
        page: usize,
        events: usize,
    ) -> f64 {
        let stopwatch = Stopwatch::start();
        for _ in 0..scans {
            let mut seen = 0usize;
            let mut buffers: Vec<VecDeque<Vec<u8>>> = vec![Default::default(); handles.len()];
            let mut cursors: Vec<Option<Option<Vec<u8>>>> = vec![Some(None); handles.len()];
            loop {
                for (shard, db) in handles.iter().enumerate() {
                    if buffers[shard].is_empty() {
                        if let Some(cursor) = cursors[shard].clone() {
                            let keys =
                                db.list_keys(b"event/", cursor.as_deref(), page).unwrap();
                            if keys.is_empty() {
                                cursors[shard] = None;
                            } else {
                                cursors[shard] = Some(Some(keys.last().unwrap().clone()));
                                buffers[shard].extend(keys);
                            }
                        }
                    }
                }
                let mut batch: Vec<(usize, Vec<u8>)> = Vec::with_capacity(page);
                while batch.len() < page {
                    let mut best: Option<usize> = None;
                    for shard in 0..handles.len() {
                        if let Some(front) = buffers[shard].front() {
                            if best.is_none_or(|b| front < buffers[b].front().unwrap()) {
                                best = Some(shard);
                            }
                        }
                    }
                    let Some(shard) = best else { break };
                    batch.push((shard, buffers[shard].pop_front().unwrap()));
                    if buffers[shard].is_empty() && cursors[shard].is_some() {
                        break; // refill before risking out-of-order keys
                    }
                }
                if batch.is_empty() {
                    if cursors.iter().all(Option::is_none)
                        && buffers.iter().all(|b| b.is_empty())
                    {
                        break;
                    }
                    continue;
                }
                for (shard, db) in handles.iter().enumerate() {
                    let keys: Vec<&[u8]> = batch
                        .iter()
                        .filter(|(s, _)| *s == shard)
                        .map(|(_, k)| k.as_slice())
                        .collect();
                    if keys.is_empty() {
                        continue;
                    }
                    let values = db.get_multi(&keys).unwrap();
                    seen += values.iter().filter(|v| v.is_some()).count();
                }
            }
            assert_eq!(seen, events, "ordered scan must see every event");
        }
        stopwatch.elapsed_secs()
    }

    /// The online reconfiguration step: start one scan-tuned provider,
    /// stream every shard's contents into it, stop the old shards.
    /// Returns (seconds, handle to the merged database).
    pub fn reshard(
        server: &BedrockServer,
        client: &MargoRuntime,
        old: &[DatabaseHandle],
        old_names: &[String],
        merged_name: &str,
        merged_provider_id: u16,
    ) -> (f64, DatabaseHandle) {
        let stopwatch = Stopwatch::start();
        server
            .start_provider(
                &ProviderSpec::new(merged_name, "yokan", merged_provider_id)
                    .with_config(scan_shard_config()),
            )
            .unwrap();
        let merged = DatabaseHandle::new(client, server.address(), merged_provider_id);
        for db in old {
            let mut cursor: Option<Vec<u8>> = None;
            loop {
                let keys = db.list_keys(b"", cursor.as_deref(), 256).unwrap();
                if keys.is_empty() {
                    break;
                }
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let values = db.get_multi(&refs).unwrap();
                let pairs: Vec<(&[u8], Vec<u8>)> = keys
                    .iter()
                    .zip(values)
                    .filter_map(|(k, v)| v.map(|v| (k.as_slice(), v)))
                    .collect();
                let refs2: Vec<(&[u8], &[u8])> =
                    pairs.iter().map(|(k, v)| (*k, v.as_slice())).collect();
                merged.put_multi(&refs2).unwrap();
                cursor = keys.last().cloned();
            }
        }
        for name in old_names {
            server.stop_provider(name).unwrap();
        }
        merged.flush().unwrap();
        (stopwatch.elapsed_secs(), merged)
    }
}
