//! The kernel's per-cycle sets as bitmasks: [`BitSet`] holds the
//! worklists (busy routers, busy channels, injection ports with NI work,
//! routers waiting to wake), [`ones`] walks a port or VC mask. Both visit
//! members in ascending order with `trailing_zeros`, which is the order a
//! scan of every index would use, so no walk needs a sort.

/// A set of indices below a fixed capacity, one bit each. The member
/// count makes testing and walking an empty set O(1), however large the
/// capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Adds `i`; a no-op if it is a member.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let (w, bit) = (&mut self.words[i / 64], 1 << (i % 64));
        if *w & bit == 0 {
            *w |= bit;
            self.len += 1;
        }
    }

    /// Removes `i`; a no-op if it is not a member.
    pub(crate) fn remove(&mut self, i: usize) {
        let (w, bit) = (&mut self.words[i / 64], 1 << (i % 64));
        if *w & bit != 0 {
            *w &= !bit;
            self.len -= 1;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Every member, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = if self.len == 0 {
            &[][..]
        } else {
            &self.words[..]
        };
        (0..words.len()).flat_map(move |w| ones(words[w]).map(move |b| w * 64 + b))
    }

    /// Visits every member in ascending order and removes those `keep`
    /// rejects. Stops after the last member, so a set whose members sit
    /// in its first words never reads the rest.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut left = self.len;
        let mut w = 0;
        while left > 0 {
            let word = self.words[w];
            left -= word.count_ones() as usize;
            for b in ones(word) {
                if !keep(w * 64 + b) {
                    self.words[w] &= !(1 << b);
                    self.len -= 1;
                }
            }
            w += 1;
        }
    }

    /// Heap bytes behind the words.
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::soa::vec_bytes(&self.words)
    }
}

/// The set bits of `m`, ascending.
#[inline]
pub(crate) fn ones(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn set_operations_agree_with_a_bool_vector() {
        let mut rng = Rng::seed_from_u64(30);
        for n in [1, 63, 64, 65, 200, 1000] {
            let mut set = BitSet::new(n);
            let mut model = vec![false; n];
            for _ in 0..4 * n {
                let i = rng.random_below(n);
                match rng.random_below(4) {
                    0 => {
                        set.remove(i);
                        model[i] = false;
                    }
                    1 => {
                        // Keep roughly two thirds of the members.
                        let salt = rng.random_below(3);
                        set.retain(|j| !(j + salt).is_multiple_of(3));
                        for (j, m) in model.iter_mut().enumerate() {
                            *m &= !(j + salt).is_multiple_of(3);
                        }
                    }
                    _ => {
                        set.insert(i);
                        model[i] = true;
                    }
                }
                let want: Vec<usize> = (0..n).filter(|&j| model[j]).collect();
                assert_eq!(set.iter().collect::<Vec<_>>(), want);
                assert_eq!(set.len(), want.len());
                assert!((0..n).all(|j| set.contains(j) == model[j]));
            }
            set.clear();
            assert!(set.is_empty() && set.iter().next().is_none());
        }
    }

    #[test]
    fn retain_visits_members_in_ascending_order_once() {
        let mut set = BitSet::new(300);
        for i in [299, 0, 64, 63, 128, 5] {
            set.insert(i);
        }
        let mut seen = Vec::new();
        set.retain(|i| {
            seen.push(i);
            i % 2 == 1
        });
        assert_eq!(seen, vec![0, 5, 63, 64, 128, 299]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![5, 63, 299]);
        assert_eq!(ones(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
    }
}
