//! The network link model.

/// Uniform link characteristics between cluster machines (a LAN, per the
/// paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// One-way latency between distinct machines, in virtual seconds.
    pub latency: f64,
    /// Loopback latency for processes on the same machine.
    pub local_latency: f64,
    /// Bandwidth in bytes per virtual second.
    pub bytes_per_sec: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        // 10BaseT-era LAN, in the spirit of the paper's testbed: ~1 ms
        // latency, ~1 MB/s effective bandwidth.
        LinkModel {
            latency: 1e-3,
            local_latency: 5e-5,
            bytes_per_sec: 1e6,
        }
    }
}

impl LinkModel {
    /// Delivery delay for a message of `bytes` between machines `src` and
    /// `dst` (indices; equal indices use loopback latency).
    pub fn transfer_time(&self, src_machine: usize, dst_machine: usize, bytes: u64) -> f64 {
        let base = if src_machine == dst_machine {
            self.local_latency
        } else {
            self.latency
        };
        base + bytes as f64 / self.bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_slower_than_local() {
        let l = LinkModel::default();
        assert!(l.transfer_time(0, 1, 100) > l.transfer_time(0, 0, 100));
    }

    #[test]
    fn bandwidth_scales_with_size() {
        let l = LinkModel {
            latency: 0.0,
            local_latency: 0.0,
            bytes_per_sec: 1000.0,
        };
        assert!((l.transfer_time(0, 1, 500) - 0.5).abs() < 1e-12);
        assert!((l.transfer_time(0, 1, 2000) - 2.0).abs() < 1e-12);
    }
}
