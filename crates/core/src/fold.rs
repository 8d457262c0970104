//! The one fold under Definitions 11–12.
//!
//! A cell folds values through the measure's `⊕m`, confidences through
//! the `⊗cf` meet, and an unknown mapping poisons its value (Example 5).
//! Cells group by key in first-contribution order, and per-morsel
//! groupings merge in morsel order, which is what makes every parallel
//! result bit-identical to the sequential one. Presentation (`f'`),
//! aggregation (which cube navigation re-runs) and delta reconstruction
//! are this fold over different keys. A presentation kept between queries resumes the fold
//! from a clone of its state after the last whole morsel, merging each
//! later morsel onto it in order — the same association tree.
//!
//! The per-row loops over these types take no lock, touch no atomic and
//! allocate nothing but a cell's first contribution: a caller keeps one
//! key buffer and one fan-out combination per morsel and rewrites them
//! in place, and [`Groups::cells`] copies the key only when it opens a
//! cell.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::confidence::Confidence;
use crate::fact::Aggregator;
use crate::multiversion::MvCell;

/// One cell under construction.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    aggregator: Aggregator,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    confidence: Confidence,
    unknown: bool,
}

impl Cell {
    /// An empty cell folding with `aggregator`.
    pub fn new(aggregator: Aggregator) -> Self {
        Cell {
            aggregator,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            confidence: Confidence::Source,
            unknown: false,
        }
    }

    /// Folds one contribution in; `None` is a value an unknown mapping
    /// could not compute.
    #[inline]
    pub fn add(&mut self, value: Option<f64>, confidence: Confidence) {
        self.confidence = self.confidence.combine(confidence);
        match value {
            Some(v) => {
                self.count += 1;
                self.sum += v;
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            None => self.unknown = true,
        }
    }

    /// Merges a later partial cell in. Count, min, max and `⊗cf` merge
    /// exactly; the sum associates in merge order, so merging in morsel
    /// order fixes it for every thread count.
    pub fn merge(&mut self, other: &Cell) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.confidence = self.confidence.combine(other.confidence);
        self.unknown |= other.unknown;
    }

    /// The cell's value and confidence; no value when an unknown mapping
    /// contributed or nothing was folded.
    pub fn finish(&self) -> MvCell {
        let value = (!self.unknown && self.count > 0).then(|| match self.aggregator {
            Aggregator::Sum => self.sum,
            Aggregator::Min => self.min,
            Aggregator::Max => self.max,
            Aggregator::Avg => self.sum / self.count as f64,
            Aggregator::Count => self.count as f64,
        });
        MvCell {
            value,
            confidence: self.confidence,
        }
    }
}

/// A multiply-rotate hasher (the FxHash scheme) for the folds' integer
/// keys: a group's order is its first contribution, never the hash, so
/// no key needs a keyed hash.
#[derive(Debug, Clone, Copy, Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Cells grouped by key, in first-contribution order.
#[derive(Debug, Clone)]
pub struct Groups<K> {
    index: HashMap<K, usize, BuildHasherDefault<FxHasher>>,
    keys: Vec<K>,
    cells: Vec<Vec<Cell>>,
}

impl<K: Hash + Eq + Clone> Default for Groups<K> {
    fn default() -> Self {
        Groups {
            index: HashMap::default(),
            keys: Vec::new(),
            cells: Vec::new(),
        }
    }
}

impl<K: Hash + Eq + Clone> Groups<K> {
    /// The cells of `key`, made by `init` on its first contribution;
    /// only a first contribution copies the key.
    pub fn cells<Q>(&mut self, key: &Q, init: impl FnOnce() -> Vec<Cell>) -> &mut [Cell]
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let i = match self.index.get(key) {
            Some(&i) => i,
            None => {
                let i = self.keys.len();
                self.index.insert(key.to_owned(), i);
                self.keys.push(key.to_owned());
                self.cells.push(init());
                i
            }
        };
        &mut self.cells[i]
    }

    /// Where `key` sits in first-contribution order.
    pub fn position(&self, key: &K) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// Merges a later partial in, appending its unseen keys in its own
    /// order: partials merged in morsel order keep the order a
    /// sequential fold would give.
    pub fn merge(&mut self, other: Groups<K>) {
        if self.keys.is_empty() {
            *self = other;
            return;
        }
        for (key, cells) in other.keys.into_iter().zip(other.cells) {
            match self.index.get(&key) {
                Some(&i) => {
                    for (a, b) in self.cells[i].iter_mut().zip(&cells) {
                        a.merge(b);
                    }
                }
                None => {
                    self.index.insert(key.clone(), self.keys.len());
                    self.keys.push(key);
                    self.cells.push(cells);
                }
            }
        }
    }

    /// Every key with its finished cells, in first-contribution order.
    pub fn finish(self) -> impl Iterator<Item = (K, Vec<MvCell>)> {
        self.keys
            .into_iter()
            .zip(self.cells)
            .map(|(key, cells)| (key, cells.iter().map(Cell::finish).collect()))
    }
}

/// Steps `combo` to the next mixed-radix combination, position 0
/// fastest, where position `d` runs over `0..len_of(d)`. Returns `false`
/// after the last one (and `combo` is all zeros again), so a loop that
/// runs its body before stepping visits every combination once — the
/// empty combination included.
pub fn next_combination(combo: &mut [usize], len_of: impl Fn(usize) -> usize) -> bool {
    for (d, i) in combo.iter_mut().enumerate() {
        *i += 1;
        if *i < len_of(d) {
            return true;
        }
        *i = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_folds_every_aggregator() {
        let aggregators = [
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::Avg,
            Aggregator::Count,
        ];
        let finished: Vec<Option<f64>> = aggregators
            .iter()
            .map(|&a| {
                let mut cell = Cell::new(a);
                for v in [3.0, 1.0, 2.0] {
                    cell.add(Some(v), Confidence::Source);
                }
                cell.finish().value
            })
            .collect();
        assert_eq!(
            finished,
            [Some(6.0), Some(1.0), Some(3.0), Some(2.0), Some(3.0)]
        );
        assert_eq!(Cell::new(Aggregator::Sum).finish().value, None);
    }

    #[test]
    fn unknown_poisons_and_confidence_meets() {
        let mut a = Cell::new(Aggregator::Sum);
        a.add(Some(1.0), Confidence::Exact);
        let mut b = Cell::new(Aggregator::Sum);
        b.add(Some(2.0), Confidence::Approx);
        a.merge(&b);
        assert_eq!(
            a.finish(),
            MvCell {
                value: Some(3.0),
                confidence: Confidence::Approx
            }
        );
        b.add(None, Confidence::Unknown);
        a.merge(&b);
        assert_eq!(
            a.finish(),
            MvCell {
                value: None,
                confidence: Confidence::Unknown
            }
        );
    }

    #[test]
    fn merge_appends_unseen_keys_in_the_partials_order() {
        let one = || vec![Cell::new(Aggregator::Count)];
        let mut first = Groups::default();
        first.cells(&"b", one)[0].add(Some(0.0), Confidence::Source);
        let mut second = Groups::default();
        for key in ["c", "b", "a"] {
            second.cells(&key, one)[0].add(Some(0.0), Confidence::Source);
        }
        first.merge(second);
        assert_eq!(first.position(&"a"), Some(2));
        let finished: Vec<(&str, Option<f64>)> = first
            .finish()
            .map(|(k, cells)| (k, cells[0].value))
            .collect();
        assert_eq!(
            finished,
            [("b", Some(2.0)), ("c", Some(1.0)), ("a", Some(1.0))]
        );
    }

    #[test]
    fn next_combination_visits_every_combination_once() {
        let lens = [2, 1, 3];
        let mut combo = [0; 3];
        let mut seen = vec![combo];
        while next_combination(&mut combo, |d| lens[d]) {
            seen.push(combo);
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[1], [1, 0, 0]);
        assert_eq!(seen[2], [0, 0, 1]);
        assert_eq!(combo, [0; 3]);
        assert!(!next_combination(&mut [], |_| unreachable!()));
    }
}
