//! The byte-flow cost model: how long data movement and scanning take.
//!
//! The paper's experiments are I/O- and network-bound; its analytical model
//! (§5.2) prices inserts and rebalances at δ seconds per GB of local disk
//! work and t seconds per GB of network transfer, with both constants
//! "derived empirically". This module makes those constants explicit and
//! adds two pieces of physical realism the endpoint arithmetic needs:
//!
//! * **half-duplex endpoints** — a node that is simultaneously shedding and
//!   receiving chunks (as in a global reshuffle) is busy for the *sum* of
//!   both directions, which is exactly why the paper's global partitioners
//!   pay ~2.5× the reorganization time of the incremental ones;
//! * **fabric bisection bandwidth** — the switch carries a bounded number
//!   of concurrent full-rate streams, so reshuffles that move more total
//!   bytes cannot hide them all behind per-node parallelism.

/// Bytes per gigabyte (decimal, as the paper uses storage GB).
pub const BYTES_PER_GB: f64 = 1_000_000_000.0;

/// Convert bytes to (decimal) gigabytes.
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / BYTES_PER_GB
}

/// Cost constants for the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// δ — seconds per GB of local disk I/O (read or write). Default 8 s/GB
    /// (~125 MB/s, a 2014-era SATA array).
    pub disk_secs_per_gb: f64,
    /// t — seconds per GB of point-to-point network transfer. Default
    /// 12 s/GB (~83 MB/s effective on gigabit Ethernet). t > δ, matching
    /// the paper's remark that Append pays for "the more costly network
    /// link".
    pub net_secs_per_gb: f64,
    /// Seconds per GB crossing the switch fabric in aggregate. Default t/2.5:
    /// the fabric sustains ~2.5 concurrent full-rate streams.
    pub fabric_secs_per_gb: f64,
    /// Fixed scheduling/handshake overhead per chunk moved or inserted.
    pub per_chunk_overhead_secs: f64,
    /// Seconds of CPU per GB scanned by query operators.
    pub cpu_secs_per_gb: f64,
    /// One-way latency of a cross-node request (halo fetch, kNN hop).
    pub net_latency_secs: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        let net = 12.0;
        CostModel {
            disk_secs_per_gb: 8.0,
            net_secs_per_gb: net,
            fabric_secs_per_gb: net / 2.5,
            per_chunk_overhead_secs: 0.01,
            cpu_secs_per_gb: 4.0,
            net_latency_secs: 0.05,
        }
    }
}

impl CostModel {
    /// Seconds for one node to write `bytes` arriving over the network
    /// (receive and write overlap; the slower path is the bottleneck).
    pub fn remote_ingest_secs(&self, bytes: u64) -> f64 {
        gb(bytes) * self.net_secs_per_gb.max(self.disk_secs_per_gb)
    }

    /// Seconds for a purely local write of `bytes`.
    pub fn local_write_secs(&self, bytes: u64) -> f64 {
        gb(bytes) * self.disk_secs_per_gb
    }

    /// Seconds to push `bytes` onto the wire.
    pub fn egress_secs(&self, bytes: u64) -> f64 {
        gb(bytes) * self.net_secs_per_gb
    }

    /// Seconds of CPU to scan `bytes`.
    pub fn scan_secs(&self, bytes: u64) -> f64 {
        gb(bytes) * (self.disk_secs_per_gb + self.cpu_secs_per_gb)
    }

    /// Seconds a requester waits for a synchronous remote fetch: request
    /// latency, the holder's disk read, the wire transfer, and local
    /// processing. Roughly twice the cost of scanning the same bytes
    /// locally — the premium that makes spatial clustering pay.
    pub fn remote_fetch_secs(&self, bytes: u64) -> f64 {
        self.net_latency_secs
            + gb(bytes) * (self.disk_secs_per_gb + self.net_secs_per_gb + self.cpu_secs_per_gb)
    }

    /// Seconds of pure CPU over `bytes` already resident in memory
    /// (buffer-pool hits, k-means re-iterations).
    pub fn cpu_secs(&self, bytes: u64) -> f64 {
        gb(bytes) * self.cpu_secs_per_gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gb_conversion() {
        assert!((gb(2_500_000_000) - 2.5).abs() < 1e-12);
        assert_eq!(gb(0), 0.0);
    }

    #[test]
    fn default_model_is_network_bound() {
        let m = CostModel::default();
        assert!(m.net_secs_per_gb > m.disk_secs_per_gb);
        assert!(m.fabric_secs_per_gb < m.net_secs_per_gb);
    }

    #[test]
    fn ingest_takes_slower_of_net_and_disk() {
        let m = CostModel::default();
        let one_gb = 1_000_000_000;
        assert!((m.remote_ingest_secs(one_gb) - 12.0).abs() < 1e-9);
        assert!((m.local_write_secs(one_gb) - 8.0).abs() < 1e-9);
    }
}
