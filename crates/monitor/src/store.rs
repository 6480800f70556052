//! The shared store: our stand-in for the paper's NFS directory.
//!
//! Every daemon publishes typed records under path-like keys
//! (`"livehosts"`, `"nodestate/csews12"`, `"latency/7"`, …) exactly as the
//! paper's daemons write files to the network filesystem. Readers see the
//! latest complete record as [`codec`](crate::codec) bytes, with its write
//! timestamp, so the allocator can reason about staleness. A record is
//! encoded at most once, by its first byte read, and the snapshot reads
//! records typed, with no encoding at all: samples are written every few
//! seconds but read far less often, and supervision reads only write times.

use crate::codec::{decode, encode, encoded_len, CodecError, MonitorRecord};
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

/// What one path holds.
#[derive(Debug)]
enum Payload {
    /// A published record nobody has read yet, boxed to keep slots small.
    Typed(Box<MonitorRecord>),
    /// Bytes: a record encoded by its first read, or a raw write.
    Encoded(Bytes),
}

impl Payload {
    /// The payload's bytes. A typed record is encoded here, once, and
    /// replaced by its bytes, so a read record is held in one form only.
    fn bytes(&mut self) -> Bytes {
        let data = match self {
            Payload::Typed(record) => encode(record),
            Payload::Encoded(data) => return data.clone(),
        };
        *self = Payload::Encoded(data.clone());
        data
    }
}

/// A concurrent path→(write time, record) keyspace shared by all daemons.
///
/// Cloning is cheap and shares the underlying map (like every node mounting
/// the same NFS export). Thread-safe: readers and writers may sit on
/// different OS threads.
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    inner: Arc<RwLock<HashMap<String, (SimTime, Payload)>>>,
}

impl SharedStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a daemon's `record` at `path`, replacing what was there,
    /// and return its [`encoded_len`], which the publish counters take.
    /// Nothing is encoded here, and replacing a record nobody read
    /// allocates nothing: the new record moves into the old one's box.
    pub fn publish(&self, path: &str, written_at: SimTime, record: MonitorRecord) -> u64 {
        let len = encoded_len(&record) as u64;
        observe_publish(path, written_at, len);
        let mut map = self.inner.write();
        match map.get_mut(path) {
            Some((at, Payload::Typed(unread))) => {
                *at = written_at;
                **unread = record;
            }
            _ => {
                let payload = Payload::Typed(Box::new(record));
                map.insert(path.to_owned(), (written_at, payload));
            }
        }
        len
    }

    /// Write raw bytes at `path`, replacing what was there: for writers
    /// outside the monitoring daemons, and tests that plant bad records.
    pub fn put(&self, path: &str, written_at: SimTime, data: Bytes) {
        observe_publish(path, written_at, data.len() as u64);
        let slot = (written_at, Payload::Encoded(data));
        self.inner.write().insert(path.to_owned(), slot);
    }

    /// Read the record at `path`, if present. A published record is
    /// encoded on its first read; later reads share those bytes.
    pub fn get(&self, path: &str) -> Option<StoreRecord> {
        let mut map = self.inner.write();
        let (written_at, payload) = map.get_mut(path)?;
        Some(StoreRecord {
            written_at: *written_at,
            data: payload.bytes(),
        })
    }

    /// The record at `path` and its write time, if present, as
    /// `decode(&get(path).data)` would give it: a published record is
    /// cloned as handed in, without encoding, and bytes are decoded.
    pub fn record(&self, path: &str) -> Option<(SimTime, Result<MonitorRecord, CodecError>)> {
        let map = self.inner.read();
        let (at, payload) = map.get(path)?;
        let record = match payload {
            Payload::Typed(record) => Ok(MonitorRecord::clone(record)),
            Payload::Encoded(data) => decode(data),
        };
        Some((*at, record))
    }

    /// Remove the record at `path`; returns whether it existed.
    pub fn remove(&self, path: &str) -> bool {
        self.inner.write().remove(path).is_some()
    }

    /// Write time of the record at `path`, if present.
    pub fn written_at(&self, path: &str) -> Option<SimTime> {
        self.inner.read().get(path).map(|&(at, _)| at)
    }

    /// Write time of the newest record whose path starts with `prefix`.
    pub fn newest_under(&self, prefix: &str) -> Option<SimTime> {
        self.inner
            .read()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &(at, _))| at)
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
}

/// Journal and count one publish of `len` bytes, when observed. The
/// event's strings are built only if the journal keeps Debug events.
fn observe_publish(path: &str, written_at: SimTime, len: u64) {
    nlrm_obs::ctx::with(|obs| {
        obs.journal
            .record_with(nlrm_obs::Severity::Debug, written_at, || {
                nlrm_obs::EventKind::Publish {
                    daemon: daemon_of(path).to_string(),
                    path: path.to_string(),
                }
            });
        obs.metrics.inc("store_publish_total");
        obs.metrics.add("store_publish_bytes_total", len);
    });
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

    /// Whether the record at `path` is still held unencoded.
    fn unencoded(s: &SharedStore, path: &str) -> bool {
        matches!(s.inner.read()[path].1, Payload::Typed(_))
    }

    #[test]
    fn publish_encodes_on_the_first_read_only() {
        use nlrm_topology::NodeId;
        let s = SharedStore::new();
        let record = MonitorRecord::Livehosts(vec![NodeId(1), NodeId(4)]);
        let len = s.publish("livehosts", SimTime::from_secs(3), record.clone());
        assert_eq!(len, encode(&record).len() as u64);
        // write times and listings never need the bytes
        assert_eq!(s.written_at("livehosts"), Some(SimTime::from_secs(3)));
        assert_eq!(s.newest_under("live"), Some(SimTime::from_secs(3)));
        assert_eq!(s.list_prefix(""), vec!["livehosts"]);
        // a typed read clones the record as decoding its bytes would
        let (at, typed) = s.record("livehosts").unwrap();
        assert_eq!((at, typed), (SimTime::from_secs(3), Ok(record.clone())));
        assert!(unencoded(&s, "livehosts"));
        let first = s.get("livehosts").unwrap();
        assert_eq!(first.data, encode(&record));
        assert!(!unencoded(&s, "livehosts"));
        assert_eq!(s.get("livehosts").unwrap(), first);
        // a publish over read bytes holds the new record unencoded again
        s.publish("livehosts", SimTime::from_secs(4), record);
        assert!(unencoded(&s, "livehosts"));
        s.put(
            "livehosts",
            SimTime::from_secs(5),
            Bytes::from_static(b"raw"),
        );
        assert_eq!(&s.get("livehosts").unwrap().data[..], b"raw");
        assert_eq!(s.record("livehosts").unwrap().1, decode(b"raw"));
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
