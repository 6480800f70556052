//! Binary record format for the shared store.
//!
//! The paper's daemons write small files to NFS; ours write small byte
//! records to the [`SharedStore`](crate::store::SharedStore). The format is
//! a hand-rolled little-endian encoding: one version byte, one tag byte,
//! then the fields. Hand-rolled because the records are tiny, fixed, and
//! must stay readable by the threaded runtime without pulling in a
//! serialization framework.

use crate::sample::{LatencyStat, NodeSample};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use nlrm_cluster::NodeSpec;
use nlrm_sim_core::time::SimTime;
use nlrm_sim_core::window::WindowedValue;
use nlrm_topology::NodeId;
use std::fmt;

/// Format version; bump on incompatible change.
const VERSION: u8 = 1;

const TAG_LIVEHOSTS: u8 = 1;
const TAG_SAMPLE: u8 = 2;
const TAG_LATENCY_ROW: u8 = 3;
const TAG_BANDWIDTH_ROW: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_SHARD_NL: u8 = 6;
const TAG_INTER_ESTIMATE: u8 = 7;

/// One shard's uplink-contribution bands inside an
/// [`MonitorRecord::InterEstimate`] record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchBandRec {
    /// Shard (switch) id.
    pub switch: u32,
    /// Latency contribution lower bound, seconds.
    pub lat_lo: f64,
    /// Latency contribution point estimate, seconds.
    pub lat: f64,
    /// Latency contribution upper bound, seconds.
    pub lat_hi: f64,
    /// Bandwidth-complement contribution lower bound, bits/s.
    pub cbw_lo: f64,
    /// Bandwidth-complement contribution point estimate, bits/s.
    pub cbw: f64,
    /// Bandwidth-complement contribution upper bound, bits/s.
    pub cbw_hi: f64,
    /// Best observed peak bandwidth through this shard's uplink, bits/s.
    pub peak_bps: f64,
}

/// One directly measured cross-shard pair inside an
/// [`MonitorRecord::InterEstimate`] record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectPairRec {
    /// Lower shard id of the pair.
    pub s: u32,
    /// Higher shard id of the pair.
    pub t: u32,
    /// Measured latency, seconds.
    pub latency_s: f64,
    /// Measured available bandwidth, bits/s.
    pub avail_bps: f64,
    /// Measured peak bandwidth, bits/s.
    pub peak_bps: f64,
}

/// Everything the monitoring system persists.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorRecord {
    /// The list of nodes that answered the last ping sweep.
    Livehosts(Vec<NodeId>),
    /// One node's state sample.
    Sample(NodeSample),
    /// One node's latency to every node (index = peer id; self entry 0).
    LatencyRow {
        /// Measuring node.
        node: NodeId,
        /// Per-peer latency statistics.
        stats: Vec<LatencyStat>,
    },
    /// One node's bandwidth to every node.
    BandwidthRow {
        /// Measuring node.
        node: NodeId,
        /// Instantaneous effective available bandwidth, bits/s.
        avail_bps: Vec<f64>,
        /// Peak (zero-load) bandwidth, bits/s.
        peak_bps: Vec<f64>,
    },
    /// A central-monitor liveness beacon.
    Heartbeat {
        /// `"master"` or `"slave"`.
        role: String,
        /// Monotonic incarnation number (bumped on failover/restart).
        incarnation: u32,
        /// When the beacon was written.
        at: SimTime,
    },
    /// One shard's complete intra-shard NL matrices (upper triangles over
    /// `members`, pair `(i,j)` with `i<j` at index `i·(2m−i−1)/2 + j−i−1`).
    ShardNl {
        /// Shard (switch) id.
        shard: u32,
        /// Sweep epoch the shard aggregator stamped on this record.
        epoch: u64,
        /// When the sweep ran.
        taken_at: SimTime,
        /// Live members measured this sweep, ascending.
        members: Vec<NodeId>,
        /// Pairwise latency, seconds (`m·(m−1)/2` entries).
        lat_s: Vec<f64>,
        /// Pairwise available bandwidth, bits/s.
        avail_bps: Vec<f64>,
        /// Pairwise peak bandwidth, bits/s.
        peak_bps: Vec<f64>,
        /// Probe traffic this sweep cost, for per-shard attribution.
        probe_bytes: u64,
    },
    /// The sampled inter-shard estimate (per-shard uplink bands plus the
    /// directly measured pairs); see [`crate::estimate::InterEstimate`].
    InterEstimate {
        /// Estimation epoch.
        epoch: u64,
        /// When the sample was taken.
        taken_at: SimTime,
        /// Switch-id space bound.
        num_switches: u32,
        /// Probes issued to build the estimate.
        probes: u64,
        /// Probe traffic in bytes.
        probe_bytes: u64,
        /// Covered shards' uplink bands, ascending by switch id.
        switches: Vec<SwitchBandRec>,
        /// Directly measured pairs, ascending by `(s, t)`.
        direct: Vec<DirectPairRec>,
    },
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Record ended before all fields were read.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown tag byte.
    BadTag(u8),
    /// Hostname was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::BadVersion(v) => write!(f, "unsupported record version {v}"),
            CodecError::BadTag(t) => write!(f, "unknown record tag {t}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in record"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Size of `record`'s encoding in bytes, so [`encode`] allocates its
/// buffer once.
fn encoded_len(record: &MonitorRecord) -> usize {
    const WINDOWED: usize = 4 * 8;
    let body = match record {
        MonitorRecord::Livehosts(hosts) => 4 + 4 * hosts.len(),
        MonitorRecord::Sample(s) => 4 + 8 + spec_len(&s.spec) + 4 * WINDOWED + 4,
        MonitorRecord::LatencyRow { stats, .. } => 4 + 4 + 3 * 8 * stats.len(),
        MonitorRecord::BandwidthRow {
            avail_bps,
            peak_bps,
            ..
        } => 4 + 4 + 8 * (avail_bps.len() + peak_bps.len()),
        MonitorRecord::Heartbeat { role, .. } => 4 + role.len() + 4 + 8,
        MonitorRecord::ShardNl {
            members,
            lat_s,
            avail_bps,
            peak_bps,
            ..
        } => {
            4 + 8
                + 8
                + 4
                + 4 * members.len()
                + 8 * (lat_s.len() + avail_bps.len() + peak_bps.len())
                + 8
        }
        MonitorRecord::InterEstimate {
            switches, direct, ..
        } => {
            8 + 8
                + 4
                + 8
                + 8
                + 4
                + (4 + 7 * 8) * switches.len()
                + 4
                + (4 + 4 + 3 * 8) * direct.len()
        }
    };
    // version and tag bytes
    2 + body
}

/// Encode a record to bytes.
pub fn encode(record: &MonitorRecord) -> Bytes {
    let len = encoded_len(record);
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u8(VERSION);
    match record {
        MonitorRecord::Livehosts(hosts) => {
            buf.put_u8(TAG_LIVEHOSTS);
            buf.put_u32_le(hosts.len() as u32);
            for h in hosts {
                buf.put_u32_le(h.0);
            }
        }
        MonitorRecord::Sample(s) => {
            buf.put_u8(TAG_SAMPLE);
            buf.put_u32_le(s.node.0);
            buf.put_u64_le(s.taken_at.as_micros());
            put_spec(&mut buf, &s.spec);
            put_windowed(&mut buf, &s.cpu_load);
            put_windowed(&mut buf, &s.cpu_util);
            put_windowed(&mut buf, &s.mem_used_frac);
            put_windowed(&mut buf, &s.flow_rate_mbps);
            buf.put_u32_le(s.users);
        }
        MonitorRecord::LatencyRow { node, stats } => {
            buf.put_u8(TAG_LATENCY_ROW);
            buf.put_u32_le(node.0);
            buf.put_u32_le(stats.len() as u32);
            for st in stats {
                buf.put_f64_le(st.instant);
                buf.put_f64_le(st.m1);
                buf.put_f64_le(st.m5);
            }
        }
        MonitorRecord::BandwidthRow {
            node,
            avail_bps,
            peak_bps,
        } => {
            buf.put_u8(TAG_BANDWIDTH_ROW);
            buf.put_u32_le(node.0);
            buf.put_u32_le(avail_bps.len() as u32);
            for &b in avail_bps {
                buf.put_f64_le(b);
            }
            debug_assert_eq!(avail_bps.len(), peak_bps.len());
            for &b in peak_bps {
                buf.put_f64_le(b);
            }
        }
        MonitorRecord::Heartbeat {
            role,
            incarnation,
            at,
        } => {
            buf.put_u8(TAG_HEARTBEAT);
            buf.put_u32_le(role.len() as u32);
            buf.put_slice(role.as_bytes());
            buf.put_u32_le(*incarnation);
            buf.put_u64_le(at.as_micros());
        }
        MonitorRecord::ShardNl {
            shard,
            epoch,
            taken_at,
            members,
            lat_s,
            avail_bps,
            peak_bps,
            probe_bytes,
        } => {
            buf.put_u8(TAG_SHARD_NL);
            buf.put_u32_le(*shard);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(taken_at.as_micros());
            buf.put_u32_le(members.len() as u32);
            for m in members {
                buf.put_u32_le(m.0);
            }
            let pairs = members.len() * members.len().saturating_sub(1) / 2;
            debug_assert_eq!(lat_s.len(), pairs);
            debug_assert_eq!(avail_bps.len(), pairs);
            debug_assert_eq!(peak_bps.len(), pairs);
            for &v in lat_s {
                buf.put_f64_le(v);
            }
            for &v in avail_bps {
                buf.put_f64_le(v);
            }
            for &v in peak_bps {
                buf.put_f64_le(v);
            }
            buf.put_u64_le(*probe_bytes);
        }
        MonitorRecord::InterEstimate {
            epoch,
            taken_at,
            num_switches,
            probes,
            probe_bytes,
            switches,
            direct,
        } => {
            buf.put_u8(TAG_INTER_ESTIMATE);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(taken_at.as_micros());
            buf.put_u32_le(*num_switches);
            buf.put_u64_le(*probes);
            buf.put_u64_le(*probe_bytes);
            buf.put_u32_le(switches.len() as u32);
            for s in switches {
                buf.put_u32_le(s.switch);
                buf.put_f64_le(s.lat_lo);
                buf.put_f64_le(s.lat);
                buf.put_f64_le(s.lat_hi);
                buf.put_f64_le(s.cbw_lo);
                buf.put_f64_le(s.cbw);
                buf.put_f64_le(s.cbw_hi);
                buf.put_f64_le(s.peak_bps);
            }
            buf.put_u32_le(direct.len() as u32);
            for d in direct {
                buf.put_u32_le(d.s);
                buf.put_u32_le(d.t);
                buf.put_f64_le(d.latency_s);
                buf.put_f64_le(d.avail_bps);
                buf.put_f64_le(d.peak_bps);
            }
        }
    }
    debug_assert_eq!(buf.len(), len, "encoded_len out of step with encode");
    buf.freeze()
}

/// Decode a record from bytes.
pub fn decode(mut data: &[u8]) -> Result<MonitorRecord, CodecError> {
    let version = get_u8(&mut data)?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let tag = get_u8(&mut data)?;
    match tag {
        TAG_LIVEHOSTS => {
            let n = get_u32(&mut data)? as usize;
            let mut hosts = Vec::with_capacity(n);
            for _ in 0..n {
                hosts.push(NodeId(get_u32(&mut data)?));
            }
            Ok(MonitorRecord::Livehosts(hosts))
        }
        TAG_SAMPLE => {
            let node = NodeId(get_u32(&mut data)?);
            let taken_at = SimTime::from_micros(get_u64(&mut data)?);
            let spec = get_spec(&mut data)?;
            let cpu_load = get_windowed(&mut data)?;
            let cpu_util = get_windowed(&mut data)?;
            let mem_used_frac = get_windowed(&mut data)?;
            let flow_rate_mbps = get_windowed(&mut data)?;
            let users = get_u32(&mut data)?;
            Ok(MonitorRecord::Sample(NodeSample {
                node,
                taken_at,
                spec,
                cpu_load,
                cpu_util,
                mem_used_frac,
                flow_rate_mbps,
                users,
            }))
        }
        TAG_LATENCY_ROW => {
            let node = NodeId(get_u32(&mut data)?);
            let n = get_u32(&mut data)? as usize;
            let mut stats = Vec::with_capacity(n);
            for _ in 0..n {
                stats.push(LatencyStat {
                    instant: get_f64(&mut data)?,
                    m1: get_f64(&mut data)?,
                    m5: get_f64(&mut data)?,
                });
            }
            Ok(MonitorRecord::LatencyRow { node, stats })
        }
        TAG_BANDWIDTH_ROW => {
            let node = NodeId(get_u32(&mut data)?);
            let n = get_u32(&mut data)? as usize;
            let mut avail_bps = Vec::with_capacity(n);
            for _ in 0..n {
                avail_bps.push(get_f64(&mut data)?);
            }
            let mut peak_bps = Vec::with_capacity(n);
            for _ in 0..n {
                peak_bps.push(get_f64(&mut data)?);
            }
            Ok(MonitorRecord::BandwidthRow {
                node,
                avail_bps,
                peak_bps,
            })
        }
        TAG_HEARTBEAT => {
            let len = get_u32(&mut data)? as usize;
            if data.remaining() < len {
                return Err(CodecError::Truncated);
            }
            let role = std::str::from_utf8(&data[..len])
                .map_err(|_| CodecError::BadUtf8)?
                .to_string();
            data.advance(len);
            let incarnation = get_u32(&mut data)?;
            let at = SimTime::from_micros(get_u64(&mut data)?);
            Ok(MonitorRecord::Heartbeat {
                role,
                incarnation,
                at,
            })
        }
        TAG_SHARD_NL => {
            let shard = get_u32(&mut data)?;
            let epoch = get_u64(&mut data)?;
            let taken_at = SimTime::from_micros(get_u64(&mut data)?);
            let m = get_u32(&mut data)? as usize;
            let mut members = Vec::with_capacity(m);
            for _ in 0..m {
                members.push(NodeId(get_u32(&mut data)?));
            }
            let pairs = m * m.saturating_sub(1) / 2;
            let tri = |data: &mut &[u8]| -> Result<Vec<f64>, CodecError> {
                let mut v = Vec::with_capacity(pairs);
                for _ in 0..pairs {
                    v.push(get_f64(data)?);
                }
                Ok(v)
            };
            let lat_s = tri(&mut data)?;
            let avail_bps = tri(&mut data)?;
            let peak_bps = tri(&mut data)?;
            let probe_bytes = get_u64(&mut data)?;
            Ok(MonitorRecord::ShardNl {
                shard,
                epoch,
                taken_at,
                members,
                lat_s,
                avail_bps,
                peak_bps,
                probe_bytes,
            })
        }
        TAG_INTER_ESTIMATE => {
            let epoch = get_u64(&mut data)?;
            let taken_at = SimTime::from_micros(get_u64(&mut data)?);
            let num_switches = get_u32(&mut data)?;
            let probes = get_u64(&mut data)?;
            let probe_bytes = get_u64(&mut data)?;
            let ns = get_u32(&mut data)? as usize;
            let mut switches = Vec::with_capacity(ns);
            for _ in 0..ns {
                switches.push(SwitchBandRec {
                    switch: get_u32(&mut data)?,
                    lat_lo: get_f64(&mut data)?,
                    lat: get_f64(&mut data)?,
                    lat_hi: get_f64(&mut data)?,
                    cbw_lo: get_f64(&mut data)?,
                    cbw: get_f64(&mut data)?,
                    cbw_hi: get_f64(&mut data)?,
                    peak_bps: get_f64(&mut data)?,
                });
            }
            let nd = get_u32(&mut data)? as usize;
            let mut direct = Vec::with_capacity(nd);
            for _ in 0..nd {
                direct.push(DirectPairRec {
                    s: get_u32(&mut data)?,
                    t: get_u32(&mut data)?,
                    latency_s: get_f64(&mut data)?,
                    avail_bps: get_f64(&mut data)?,
                    peak_bps: get_f64(&mut data)?,
                });
            }
            Ok(MonitorRecord::InterEstimate {
                epoch,
                taken_at,
                num_switches,
                probes,
                probe_bytes,
                switches,
                direct,
            })
        }
        other => Err(CodecError::BadTag(other)),
    }
}

fn spec_len(spec: &NodeSpec) -> usize {
    4 + spec.hostname.len() + 4 + 8 + 8
}

fn put_spec(buf: &mut BytesMut, spec: &NodeSpec) {
    buf.put_u32_le(spec.hostname.len() as u32);
    buf.put_slice(spec.hostname.as_bytes());
    buf.put_u32_le(spec.cores);
    buf.put_f64_le(spec.freq_ghz);
    buf.put_f64_le(spec.total_mem_gb);
}

fn get_spec(data: &mut &[u8]) -> Result<NodeSpec, CodecError> {
    let len = get_u32(data)? as usize;
    if data.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let hostname = std::str::from_utf8(&data[..len])
        .map_err(|_| CodecError::BadUtf8)?
        .to_string();
    data.advance(len);
    Ok(NodeSpec {
        hostname,
        cores: get_u32(data)?,
        freq_ghz: get_f64(data)?,
        total_mem_gb: get_f64(data)?,
    })
}

fn put_windowed(buf: &mut BytesMut, w: &WindowedValue) {
    buf.put_f64_le(w.instant);
    buf.put_f64_le(w.m1);
    buf.put_f64_le(w.m5);
    buf.put_f64_le(w.m15);
}

fn get_windowed(data: &mut &[u8]) -> Result<WindowedValue, CodecError> {
    Ok(WindowedValue {
        instant: get_f64(data)?,
        m1: get_f64(data)?,
        m5: get_f64(data)?,
        m15: get_f64(data)?,
    })
}

fn get_u8(data: &mut &[u8]) -> Result<u8, CodecError> {
    if data.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    Ok(data.get_u8())
}

fn get_u32(data: &mut &[u8]) -> Result<u32, CodecError> {
    if data.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(data.get_u32_le())
}

fn get_u64(data: &mut &[u8]) -> Result<u64, CodecError> {
    if data.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(data.get_u64_le())
}

fn get_f64(data: &mut &[u8]) -> Result<f64, CodecError> {
    if data.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(data.get_f64_le())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeSample {
        NodeSample {
            node: NodeId(7),
            taken_at: SimTime::from_secs(123),
            spec: NodeSpec {
                hostname: "csews8".into(),
                cores: 12,
                freq_ghz: 4.6,
                total_mem_gb: 16.0,
            },
            cpu_load: WindowedValue {
                instant: 0.5,
                m1: 0.4,
                m5: 0.3,
                m15: 0.2,
            },
            cpu_util: WindowedValue::constant(0.25),
            mem_used_frac: WindowedValue::constant(0.3),
            flow_rate_mbps: WindowedValue::constant(12.0),
            users: 3,
        }
    }

    #[test]
    fn livehosts_roundtrip() {
        let r = MonitorRecord::Livehosts(vec![NodeId(0), NodeId(5), NodeId(59)]);
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn sample_roundtrip() {
        let r = MonitorRecord::Sample(sample());
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn latency_row_roundtrip() {
        let r = MonitorRecord::LatencyRow {
            node: NodeId(2),
            stats: vec![LatencyStat::constant(0.0), LatencyStat::constant(1e-4)],
        };
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn bandwidth_row_roundtrip() {
        let r = MonitorRecord::BandwidthRow {
            node: NodeId(2),
            avail_bps: vec![0.0, 9e8],
            peak_bps: vec![0.0, 1e9],
        };
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn heartbeat_roundtrip() {
        let r = MonitorRecord::Heartbeat {
            role: "master".into(),
            incarnation: 4,
            at: SimTime::from_secs(99),
        };
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn shard_nl_roundtrip() {
        let r = MonitorRecord::ShardNl {
            shard: 3,
            epoch: 12,
            taken_at: SimTime::from_secs(120),
            members: vec![NodeId(45), NodeId(46), NodeId(48)],
            lat_s: vec![1e-4, 2e-4, 3e-4],
            avail_bps: vec![8e8, 7e8, 6e8],
            peak_bps: vec![1e9, 1e9, 1e9],
            probe_bytes: 3 * (1 << 20),
        };
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn inter_estimate_roundtrip() {
        let r = MonitorRecord::InterEstimate {
            epoch: 5,
            taken_at: SimTime::from_secs(300),
            num_switches: 21,
            probes: 70,
            probe_bytes: 70 * ((1 << 20) + 128),
            switches: vec![SwitchBandRec {
                switch: 1,
                lat_lo: 4e-4,
                lat: 5e-4,
                lat_hi: 6e-4,
                cbw_lo: 0.0,
                cbw: 1e6,
                cbw_hi: 2e6,
                peak_bps: 1e9,
            }],
            direct: vec![DirectPairRec {
                s: 1,
                t: 2,
                latency_s: 1e-3,
                avail_bps: 9e8,
                peak_bps: 1e9,
            }],
        };
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn truncated_records_error() {
        let full = encode(&MonitorRecord::Sample(sample()));
        for cut in [0, 1, 2, 5, full.len() - 1] {
            assert!(
                matches!(decode(&full[..cut]), Err(CodecError::Truncated)),
                "cut {cut} did not fail as truncated"
            );
        }
    }

    #[test]
    fn bad_tag_and_version_detected() {
        assert_eq!(decode(&[9, 1]), Err(CodecError::BadVersion(9)));
        assert_eq!(decode(&[VERSION, 200]), Err(CodecError::BadTag(200)));
    }
}
