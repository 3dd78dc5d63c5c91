//! Round-robin arbiters used by the VA and SA router stages, and the
//! request bit-vectors they arbitrate over.

/// Input ports a router may have, and VCs a port may have: the bounds of
/// the `u32` port and VC bitmasks the router stage works with. Both are
/// enforced: `Network::new` refuses a router with more ports, and
/// `SimConfig::validate` a configuration with more VCs per port.
pub(crate) const MAX_PORTS: usize = 32;

/// The requests for one output port as bit-vectors over (input port, VC):
/// bit `vi` of `vcs[pi]` is set when VC `vi` of input port `pi` requests.
/// Bit `pi` of `ports` says `vcs[pi]` is current; the entries of other
/// ports are stale and never read, so clearing is one store.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Requests {
    ports: u32,
    vcs: [u32; MAX_PORTS],
}

impl Requests {
    /// Adds the request of VC `vi` of input port `pi`.
    #[inline]
    pub(crate) fn add(&mut self, pi: usize, vi: usize) {
        let bit = 1 << pi;
        if self.ports & bit == 0 {
            self.ports |= bit;
            self.vcs[pi] = 0;
        }
        self.vcs[pi] |= 1 << vi;
    }

    /// Withdraws every request.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.ports = 0;
    }
}

/// A round-robin arbiter over a fixed-size candidate set.
///
/// The arbiter remembers the last granted index and gives lowest priority to
/// it on the next arbitration, guaranteeing strong fairness: any continuously
/// requesting candidate is granted within `n` arbitrations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundRobin {
    /// The last grant: an index for [`grant`](Self::grant), the pair
    /// `port << 5 | vc` for [`grant_mask`](Self::grant_mask).
    last: usize,
}

impl RoundRobin {
    /// Creates an arbiter whose first grant favours index 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }

    /// Grants one of the requesting candidates, or `None` if no candidate
    /// requests. `requests[i]` is true if candidate `i` requests.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        let n = requests.len();
        if n == 0 {
            return None;
        }
        for off in 1..=n {
            let i = (self.last + off) % n;
            if requests[i] {
                self.last = i;
                return Some(i);
            }
        }
        None
    }

    /// Grants the first `(input port, VC)` requester after the last grant
    /// in `(port, VC)` order, else the first one, skipping the input ports
    /// in `excluded` (the crossbar input constraint of switch allocation).
    /// Returns `None` and keeps the pointer when nothing eligible requests.
    #[inline]
    pub(crate) fn grant_mask(&mut self, req: &Requests, excluded: u32) -> Option<(usize, usize)> {
        let ports = req.ports & !excluded;
        if ports == 0 {
            return None;
        }
        let (lp, lv) = (self.last >> 5, self.last & 31);
        // Bits strictly above `b`, for `b < 32`.
        let above = |b: usize| u32::MAX << b << 1;
        let later_vcs = req.vcs[lp] & above(lv);
        let (pi, vcs) = if ports >> lp & 1 != 0 && later_vcs != 0 {
            (lp, later_vcs)
        } else {
            let later = ports & above(lp);
            let pi = if later != 0 { later } else { ports }.trailing_zeros() as usize;
            (pi, req.vcs[pi])
        };
        let vi = vcs.trailing_zeros() as usize;
        self.last = pi << 5 | vi;
        Some((pi, vi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn grants_none_when_no_requests() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.grant(&[false, false, false]), None);
        assert_eq!(rr.grant(&[]), None);
        assert_eq!(rr.grant_mask(&Requests::default(), 0), None);
    }

    #[test]
    fn rotates_among_continuous_requesters() {
        let mut rr = RoundRobin::new();
        let reqs = [true, true, true];
        let seq: Vec<usize> = (0..6).map(|_| rr.grant(&reqs).unwrap()).collect();
        assert_eq!(seq, vec![1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn single_requester_always_wins() {
        let mut rr = RoundRobin::new();
        for _ in 0..5 {
            assert_eq!(rr.grant(&[false, true, false]), Some(1));
        }
    }

    #[test]
    fn fairness_over_window() {
        let mut rr = RoundRobin::new();
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            let g = rr.grant(&[true, true, true, true]).unwrap();
            counts[g] += 1;
        }
        for c in counts {
            assert_eq!(c, 100);
        }
    }

    #[test]
    fn mask_grant_rotates_over_ports_and_vcs() {
        let mut rr = RoundRobin::new();
        let mut req = Requests::default();
        for (pi, vi) in [(0, 2), (1, 5), (3, 0)] {
            req.add(pi, vi);
        }
        let seq: Vec<_> = (0..4).map(|_| rr.grant_mask(&req, 0).unwrap()).collect();
        assert_eq!(seq, vec![(0, 2), (1, 5), (3, 0), (0, 2)]);
        // An excluded port is skipped; a lower requester is reached by
        // wrapping around.
        assert_eq!(rr.grant_mask(&req, 0b10), Some((3, 0)));
        req.clear();
        req.add(0, 0);
        req.add(31, 31);
        assert_eq!(rr.grant_mask(&req, 0), Some((31, 31)));
        assert_eq!(rr.grant_mask(&req, 0), Some((0, 0)));
        assert_eq!(rr.grant_mask(&req, 1), Some((31, 31)));
        assert_eq!(rr.grant_mask(&req, 1 | 1 << 31), None);
        assert_eq!(rr.last, 31 << 5 | 31, "a refused grant keeps the pointer");
    }

    /// The sorted-list grant the mask grant replaced: candidates are keys
    /// `port * total_vcs + vc` in ascending order, `last` the last key.
    fn grant_sorted(
        last: &mut usize,
        candidates: &[usize],
        eligible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut first_eligible = None;
        for &c in candidates {
            if !eligible(c) {
                continue;
            }
            if c > *last {
                *last = c;
                return Some(c);
            }
            if first_eligible.is_none() {
                first_eligible = Some(c);
            }
        }
        if let Some(c) = first_eligible {
            *last = c;
            return Some(c);
        }
        None
    }

    /// The mask grant picks the sorted-list grant's winner and leaves the
    /// same pointer, over random request sets (up to 32 x 32 pairs),
    /// random prior pointers and random input-port exclusions.
    #[test]
    fn mask_grant_matches_the_sorted_list_grant() {
        let mut rng = Rng::seed_from_u64(0x5A);
        for case in 0..4_000 {
            let n_ports = rng.random_range(1, MAX_PORTS + 1);
            let total_vcs = rng.random_range(1, MAX_PORTS + 1);
            let (lp, lv) = (rng.random_below(n_ports), rng.random_below(total_vcs));
            let mut rr = RoundRobin { last: lp << 5 | lv };
            let mut last = lp * total_vcs + lv;
            // Several grants in a row, each over a fresh request set.
            for _ in 0..4 {
                let density = rng.random_f64();
                let mut req = Requests::default();
                let mut keys = Vec::new();
                for pi in 0..n_ports {
                    for vi in 0..total_vcs {
                        if rng.random_bool(density * density) {
                            req.add(pi, vi);
                            keys.push(pi * total_vcs + vi);
                        }
                    }
                }
                let excluded = rng.next_u64() as u32 & rng.next_u64() as u32;
                let want = grant_sorted(&mut last, &keys, |k| excluded >> (k / total_vcs) & 1 == 0);
                let got = rr.grant_mask(&req, excluded);
                let want = want.map(|k| (k / total_vcs, k % total_vcs));
                assert_eq!(got, want, "case {case}");
                let (pi, vi) = (last / total_vcs, last % total_vcs);
                assert_eq!(rr.last, pi << 5 | vi, "pointer, case {case}");
            }
        }
    }
}
