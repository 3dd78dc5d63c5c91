//! The simulated-statistics digest.
//!
//! A change that only makes the simulator faster must leave every
//! simulated statistic identical. Instead of making each statistic a
//! metric, the runner folds them all — exact integers and the bit
//! patterns of exact floats — into one FNV-1a digest that must not move
//! between the untraced and the traced run, between two runs of one
//! seed, or across a performance change.

use adaptnoc_sim::stats::NetStats;

/// An FNV-1a 64-bit fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds every exact field of a statistics window.
    pub fn net_stats(&mut self, s: &NetStats) {
        for v in [
            s.packets,
            s.flits,
            s.network_latency_sum,
            s.queuing_latency_sum,
            s.hops_sum,
            s.by_kind[0],
            s.by_kind[1],
            s.by_kind[2],
            s.packets_offered,
            s.buffer_occupancy_sum,
            s.injection_queue_sum,
            s.flits_forwarded,
            s.cycles,
            s.max_network_latency,
            s.max_queuing_latency,
            s.nacks,
            s.retries,
            s.drops,
        ] {
            self.u64(v);
        }
        for &b in s.latency_hist.buckets() {
            self.u64(b);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_value_sensitive() {
        let fold = |vals: &[u64]| {
            let mut d = Digest::default();
            vals.iter().for_each(|&v| d.u64(v));
            d.value()
        };
        assert_eq!(fold(&[1, 2]), fold(&[1, 2]));
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        assert_ne!(fold(&[1, 2]), fold(&[1, 3]));
        let mut a = Digest::default();
        a.f64(0.0);
        let mut b = Digest::default();
        b.f64(-0.0);
        assert_ne!(a, b, "floats fold by bit pattern");
    }
}
