//! The shared store: our stand-in for the paper's NFS directory.
//!
//! Every daemon writes opaque byte records under path-like keys
//! (`"livehosts"`, `"nodestate/csews12"`, `"latency/7"`, …) exactly as the
//! paper's daemons write files to the network filesystem. Readers see the
//! latest complete record with its write timestamp, so the allocator can
//! reason about staleness.

use bytes::Bytes;
use nlrm_sim_core::time::SimTime;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A stored record: payload plus the virtual time it was written.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Virtual time of the write.
    pub written_at: SimTime,
    /// Encoded payload (see [`crate::codec`]).
    pub data: Bytes,
}

/// A concurrent path→record keyspace shared by all daemons.
///
/// Cloning is cheap and shares the underlying map (like every node mounting
/// the same NFS export). Thread-safe: the threaded runtime uses it from
/// many OS threads.
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    inner: Arc<RwLock<HashMap<String, StoreRecord>>>,
}

impl SharedStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write (or overwrite) the record at `path`. An existing record is
    /// replaced in place; the key is allocated only on the first write.
    pub fn put(&self, path: &str, written_at: SimTime, data: Bytes) {
        if nlrm_obs::ctx::is_active() {
            nlrm_obs::ctx::emit(
                nlrm_obs::Severity::Debug,
                written_at,
                nlrm_obs::EventKind::Publish {
                    daemon: daemon_of(path).to_string(),
                    path: path.to_string(),
                },
            );
            nlrm_obs::ctx::inc("store_publish_total");
            nlrm_obs::ctx::add("store_publish_bytes_total", data.len() as u64);
        }
        let record = StoreRecord { written_at, data };
        let mut map = self.inner.write();
        match map.get_mut(path) {
            Some(slot) => *slot = record,
            None => {
                map.insert(path.to_owned(), record);
            }
        }
    }

    /// Read the record at `path`, if present.
    pub fn get(&self, path: &str) -> Option<StoreRecord> {
        self.inner.read().get(path).cloned()
    }

    /// Remove the record at `path`; returns whether it existed.
    pub fn remove(&self, path: &str) -> bool {
        self.inner.write().remove(path).is_some()
    }

    /// Write time of the record at `path`, if present.
    pub fn written_at(&self, path: &str) -> Option<SimTime> {
        self.inner.read().get(path).map(|r| r.written_at)
    }

    /// Write time of the newest record whose path starts with `prefix`.
    pub fn newest_under(&self, prefix: &str) -> Option<SimTime> {
        self.inner
            .read()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, r)| r.written_at)
            .max()
    }

    /// All paths with the given prefix, sorted.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        let mut keys: Vec<String> = self
            .inner
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort();
        keys
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Drop everything (tests).
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

/// Which daemon family owns a store path (for publish events).
fn daemon_of(path: &str) -> &'static str {
    match path.split('/').next().unwrap_or(path) {
        "livehosts" => "livehosts",
        "nodestate" => "nodestate",
        "latency" => "latency",
        "bandwidth" => "bandwidth",
        "central" => "central",
        "shard" => "shard",
        "estimate" => "estimate",
        _ => "other",
    }
}

/// Store paths used by the daemons. Centralised so that writers and the
/// snapshot assembler can never drift apart.
pub mod paths {
    use nlrm_topology::NodeId;

    /// Livehosts list.
    pub const LIVEHOSTS: &str = "livehosts";

    /// Per-node state record.
    pub fn node_state(node: NodeId) -> String {
        format!("nodestate/{}", node.0)
    }

    /// Prefix of every latency row.
    pub const LATENCY_PREFIX: &str = "latency/";

    /// Prefix of every bandwidth row.
    pub const BANDWIDTH_PREFIX: &str = "bandwidth/";

    /// Per-node latency row.
    pub fn latency_row(node: NodeId) -> String {
        format!("{LATENCY_PREFIX}{}", node.0)
    }

    /// Per-node bandwidth row.
    pub fn bandwidth_row(node: NodeId) -> String {
        format!("{BANDWIDTH_PREFIX}{}", node.0)
    }

    /// The master central monitor's heartbeat.
    pub const MASTER_HEARTBEAT: &str = "central/master";

    /// Per-shard intra-NL record (sharded topology).
    pub fn shard_nl(shard: u32) -> String {
        format!("shard/{shard}/nl")
    }

    /// The sampled inter-shard estimate (sharded topology).
    pub const INTER_ESTIMATE: &str = "estimate/inter";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s = SharedStore::new();
        s.put("a/b", SimTime::from_secs(5), Bytes::from_static(b"xyz"));
        let r = s.get("a/b").unwrap();
        assert_eq!(r.written_at, SimTime::from_secs(5));
        assert_eq!(&r.data[..], b"xyz");
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let s = SharedStore::new();
        s.put("k", SimTime::from_secs(1), Bytes::from_static(b"1"));
        s.put("k", SimTime::from_secs(2), Bytes::from_static(b"2"));
        assert_eq!(&s.get("k").unwrap().data[..], b"2");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let s = SharedStore::new();
        let s2 = s.clone();
        s.put("k", SimTime::ZERO, Bytes::new());
        assert!(s2.get("k").is_some());
        assert!(s2.remove("k"));
        assert!(s.is_empty());
    }

    #[test]
    fn prefix_listing_is_sorted() {
        let s = SharedStore::new();
        for i in [3u32, 1, 2] {
            s.put(&format!("nodestate/{i}"), SimTime::ZERO, Bytes::new());
        }
        s.put("latency/0", SimTime::ZERO, Bytes::new());
        let keys = s.list_prefix("nodestate/");
        assert_eq!(keys, vec!["nodestate/1", "nodestate/2", "nodestate/3"]);
    }

    #[test]
    fn write_times_by_path_and_prefix() {
        let s = SharedStore::new();
        assert_eq!(s.written_at("latency/0"), None);
        assert_eq!(s.newest_under("latency/"), None);
        s.put("latency/0", SimTime::from_secs(7), Bytes::new());
        s.put("latency/1", SimTime::from_secs(9), Bytes::new());
        s.put("latencyx", SimTime::from_secs(99), Bytes::new());
        s.put("bandwidth/0", SimTime::from_secs(50), Bytes::new());
        assert_eq!(s.written_at("latency/0"), Some(SimTime::from_secs(7)));
        assert_eq!(s.newest_under("latency/"), Some(SimTime::from_secs(9)));
        // an overwrite moves the write time in place
        s.put("latency/0", SimTime::from_secs(11), Bytes::new());
        assert_eq!(s.newest_under("latency/"), Some(SimTime::from_secs(11)));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let s = SharedStore::new();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        s.put(
                            &format!("t{i}/{j}"),
                            SimTime::from_secs(j),
                            Bytes::from(vec![i as u8]),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 800);
    }
}
