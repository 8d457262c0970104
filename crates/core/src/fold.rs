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
//! allocate nothing per row: a caller keeps one key buffer and one
//! fan-out combination per morsel and rewrites them in place, and
//! [`Groups::cells`] appends a new cell's key and cells to flat vectors
//! (which grow by doubling).

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

/// The FxHash multiply-rotate scheme over a key's words, rotated so
/// the well-mixed high bits pick the slot: a group's order is its first
/// contribution, never the hash, so no key needs a keyed hash.
fn hash(key: &[i64]) -> u64 {
    let mut h = 0u64;
    for &word in key {
        h = (h.rotate_left(5) ^ word as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    h.rotate_left(26)
}

/// The slot entry of group `g`.
fn slot_mark(g: usize) -> u32 {
    u32::try_from(g + 1).expect("fewer than 2^32 - 1 groups")
}

/// Cells grouped by key, in first-contribution order.
///
/// Keys are integer words of one width and each is kept once, flat:
/// group `g`'s key is `keys[g * key_width..][..key_width]` and its cells
/// are `cells[g * width..][..width]`. An open-addressing table of group
/// numbers finds a key. A new group allocates nothing of its own, and
/// a clone of the whole state (a kept presentation) is three vectors.
#[derive(Debug, Clone, Default)]
pub struct Groups {
    len: usize,
    key_width: usize,
    width: usize,
    keys: Vec<i64>,
    cells: Vec<Cell>,
    /// Linear probing over a power-of-two table: a group number plus
    /// one, or 0 for a free slot; at most half full.
    slots: Vec<u32>,
}

impl Groups {
    fn key(&self, g: usize) -> &[i64] {
        &self.keys[g * self.key_width..][..self.key_width]
    }

    /// The slot holding `key`, or the free slot where it would go.
    fn slot(&self, key: &[i64]) -> (usize, Option<usize>) {
        let mask = self.slots.len() - 1;
        let mut s = hash(key) as usize & mask;
        loop {
            match self.slots[s] {
                0 => return (s, None),
                g if self.key(g as usize - 1) == key => return (s, Some(g as usize - 1)),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Where `key` sits in first-contribution order, appending it with
    /// a copy of `init` as its cells on its first contribution; `true`
    /// when it was appended.
    pub fn insert(&mut self, key: &[i64], init: &[Cell]) -> (usize, bool) {
        if self.len == 0 {
            (self.key_width, self.width) = (key.len(), init.len());
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            for g in 0..self.len {
                let (s, _) = self.slot(self.key(g));
                self.slots[s] = slot_mark(g);
            }
        }
        match self.slot(key) {
            (_, Some(g)) => (g, false),
            (s, None) => {
                self.slots[s] = slot_mark(self.len);
                self.keys.extend_from_slice(key);
                self.cells.extend_from_slice(init);
                self.len += 1;
                (self.len - 1, true)
            }
        }
    }

    /// The cells of `key`, a copy of `init` on its first contribution.
    pub fn cells(&mut self, key: &[i64], init: &[Cell]) -> &mut [Cell] {
        let (g, _) = self.insert(key, init);
        &mut self.cells[g * self.width..][..self.width]
    }

    /// Where `key` sits in first-contribution order.
    #[must_use]
    pub fn position(&self, key: &[i64]) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.slot(key).1
    }

    /// Merges a later partial in, appending its unseen keys in its own
    /// order: partials merged in morsel order keep the order a
    /// sequential fold would give.
    pub fn merge(&mut self, other: Groups) {
        if self.len == 0 {
            *self = other;
            return;
        }
        for (key, cells) in other.iter() {
            if let (g, false) = self.insert(key, cells) {
                for (a, b) in self.cells[g * self.width..][..self.width]
                    .iter_mut()
                    .zip(cells)
                {
                    a.merge(b);
                }
            }
        }
    }

    /// Group `g`'s key and cells.
    #[must_use]
    pub fn group(&self, g: usize) -> (&[i64], &[Cell]) {
        (self.key(g), &self.cells[g * self.width..][..self.width])
    }

    /// Every key with its cells, in first-contribution order.
    pub fn iter(&self) -> impl Iterator<Item = (&[i64], &[Cell])> {
        (0..self.len).map(|g| self.group(g))
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
        let one = [Cell::new(Aggregator::Count)];
        let mut first = Groups::default();
        first.cells(&[2, 7], &one)[0].add(Some(0.0), Confidence::Source);
        let mut second = Groups::default();
        for key in [[3, 7], [2, 7], [1, 7]] {
            second.cells(&key, &one)[0].add(Some(0.0), Confidence::Source);
        }
        first.merge(second);
        assert_eq!(first.position(&[1, 7]), Some(2));
        assert_eq!(first.position(&[7, 1]), None);
        let finished: Vec<(i64, Option<f64>)> = first
            .iter()
            .map(|(k, cells)| (k[0], cells[0].finish().value))
            .collect();
        assert_eq!(finished, [(2, Some(2.0)), (3, Some(1.0)), (1, Some(1.0))]);
    }

    #[test]
    fn keys_survive_every_growth_of_the_table() {
        let mut groups = Groups::default();
        for round in 0..2 {
            for k in 0..1_000i64 {
                let (g, new) = groups.insert(&[k % 7, k], &[]);
                assert_eq!((g, new), (k as usize, round == 0));
            }
        }
        assert!(groups.iter().map(|(k, _)| k[1]).eq(0..1_000));
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
