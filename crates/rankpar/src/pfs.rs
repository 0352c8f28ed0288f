//! Parametric parallel-filesystem cost model (the Summit/GPFS stand-in).
//!
//! The paper's I/O experiments (Figs. 17–18) decompose write time into
//! pre-processing, compression and storage costs. Compression and
//! pre-processing are *real compute* here and are measured; what a laptop
//! cannot reproduce is the shared parallel filesystem, so storage costs are
//! modeled with the effects the paper analyses explicitly:
//!
//! * a constant launch cost per compressor/filter invocation — the paper
//!   estimates ≈0.03 s per call on Summit and attributes AMReX's slowdown
//!   to thousands of calls (§4.4);
//! * a shared aggregate bandwidth: all ranks writing concurrently split it
//!   (weak scaling grows total bytes, not bandwidth);
//! * a per-write-call latency (HDF5 metadata + request overhead);
//! * a per-dataset collective-create cost — with filters enabled HDF5
//!   writes collectively, so every rank participates in every dataset
//!   create (the "one dataset per rank is 5× slower" pathology of §3.3).

/// Cost-model parameters. Defaults approximate the Summit-era behaviour
/// the paper reports; harnesses may override for sensitivity studies.
#[derive(Clone, Copy, Debug)]
pub struct PfsParams {
    /// Constant cost of launching the compressor/filter once (s).
    pub compressor_launch_s: f64,
    /// Aggregate filesystem bandwidth shared by all ranks (bytes/s).
    pub aggregate_bandwidth: f64,
    /// Per write-call latency (s).
    pub write_latency_s: f64,
    /// Per-dataset collective create/close cost (s); paid once per dataset
    /// by every rank (collective semantics).
    pub collective_create_s: f64,
}

impl Default for PfsParams {
    fn default() -> Self {
        PfsParams {
            compressor_launch_s: 0.03,
            aggregate_bandwidth: 2.5e9,
            write_latency_s: 0.002,
            collective_create_s: 0.05,
        }
    }
}

/// Per-rank ledger of storage-path events, convertible into modeled
/// seconds. Real compute (compression, buffer packing) rides along as
/// measured seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoLedger {
    /// Bytes this rank wrote to storage.
    pub bytes_written: u64,
    /// Number of write calls issued by this rank.
    pub write_calls: u64,
    /// Number of filter/compressor invocations on this rank.
    pub filter_calls: u64,
    /// Number of collective dataset creates this rank participated in.
    pub dataset_creates: u64,
    /// Measured wall-clock compute folded into the total (s).
    pub measured_compute_s: f64,
}

impl IoLedger {
    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &IoLedger) {
        self.bytes_written += other.bytes_written;
        self.write_calls += other.write_calls;
        self.filter_calls += other.filter_calls;
        self.dataset_creates += other.dataset_creates;
        self.measured_compute_s += other.measured_compute_s;
    }

    /// Modeled I/O seconds for this rank in an `nranks`-wide job:
    /// bandwidth share + latencies + filter launches + collective creates
    /// + measured compute.
    pub fn modeled_seconds(&self, params: &PfsParams, nranks: usize) -> f64 {
        assert!(nranks > 0);
        let share = params.aggregate_bandwidth / nranks as f64;
        self.bytes_written as f64 / share
            + self.write_calls as f64 * params.write_latency_s
            + self.filter_calls as f64 * params.compressor_launch_s
            + self.dataset_creates as f64 * params.collective_create_s
            + self.measured_compute_s
    }
}

/// Max modeled time across ranks — the number the paper plots (slowest
/// rank gates the write).
pub fn job_seconds(ledgers: &[IoLedger], params: &PfsParams, nranks: usize) -> f64 {
    ledgers
        .iter()
        .map(|l| l.modeled_seconds(params, nranks))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `calls` write calls of `bytes` each, every one behind one filter
    /// call.
    fn writes(calls: u64, bytes: u64) -> IoLedger {
        IoLedger {
            bytes_written: calls * bytes,
            write_calls: calls,
            filter_calls: calls,
            ..IoLedger::default()
        }
    }

    #[test]
    fn ledger_accumulates() {
        let mut l = writes(1, 1000);
        l.merge(&writes(1, 500));
        l.merge(&IoLedger {
            dataset_creates: 1,
            measured_compute_s: 0.25,
            ..IoLedger::default()
        });
        assert_eq!(l.bytes_written, 1500);
        assert_eq!(l.write_calls, 2);
        assert_eq!(l.filter_calls, 2);
        assert_eq!(l.dataset_creates, 1);
        assert_eq!(l.measured_compute_s, 0.25);
    }

    #[test]
    fn many_filter_calls_dominate() {
        // The paper's §4.4 analysis: 2048 calls × 0.03 s ≈ 61 s of pure
        // launch overhead.
        let params = PfsParams::default();
        let few = writes(1, 100 << 20);
        let many = writes(2048, (100 << 20) / 2048);
        let t_few = few.modeled_seconds(&params, 64);
        let t_many = many.modeled_seconds(&params, 64);
        assert!(t_many > t_few + 50.0, "few={t_few}, many={t_many}");
    }

    #[test]
    fn weak_scaling_grows_bandwidth_term() {
        // Same per-rank bytes, more ranks → smaller share → longer write.
        let params = PfsParams::default();
        let l = writes(1, 1 << 30);
        let t64 = l.modeled_seconds(&params, 64);
        let t512 = l.modeled_seconds(&params, 512);
        assert!(t512 > t64 * 7.0 && t512 < t64 * 9.0);
    }

    #[test]
    fn job_time_is_slowest_rank() {
        let params = PfsParams::default();
        let (a, b) = (writes(1, 10), writes(1, 1 << 30));
        let t = job_seconds(&[a, b], &params, 2);
        assert!((t - b.modeled_seconds(&params, 2)).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let mut a = IoLedger {
            bytes_written: 10,
            ..IoLedger::default()
        };
        a.merge(&IoLedger {
            filter_calls: 1,
            measured_compute_s: 1.0,
            ..IoLedger::default()
        });
        assert_eq!(a.bytes_written, 10);
        assert_eq!(a.filter_calls, 1);
        assert_eq!(a.measured_compute_s, 1.0);
    }
}
