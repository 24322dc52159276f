//! The incremental coordinated-views engine.
//!
//! Invariants maintained at all times (and property-tested):
//!
//! * `masks[r]` has bit `d` set iff record `r` fails dimension `d`'s brush,
//! * `selection_count == |{r : masks[r] == 0}|`,
//! * `histogram(d).counts[b] == |{r in bin b : masks[r] & !bit(d) == 0}|`
//!   — i.e. every histogram reflects all *other* filters,
//! * all of the above equal a naive from-scratch recomputation.

/// Identifier of a dimension within one [`Crossfilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimId(pub usize);

/// Maximum dimensions per crossfilter (bits in the record mask).
pub const MAX_DIMS: usize = 32;

/// Current brush on a dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum BrushState {
    /// No filtering: all records pass.
    None,
    /// Numeric half-open range `[lo, hi)` on the dimension's value.
    Range(f64, f64),
    /// Set of selected categories (bins).
    Categories(Vec<u32>),
}

enum DimKind {
    /// Numeric: raw values + record ids sorted by value + bin per record.
    Numeric {
        values: Vec<f64>,
        sorted: Vec<u32>,
        /// Current brush as an interval of `sorted` indices.
        brushed: Option<(usize, usize)>,
    },
    /// Categorical: bin id per record + per-category record lists.
    Categorical {
        /// Currently allowed categories as a bitvec (empty = no brush).
        allowed: Vec<bool>,
        /// Records per category.
        by_cat: Vec<Vec<u32>>,
        /// Whether a brush is active.
        active: bool,
    },
}

struct Dimension {
    kind: DimKind,
    /// Bin id per record (numeric dims use caller-provided binning).
    bin_of: Vec<u32>,
    n_bins: usize,
    /// Histogram counts: records in bin passing all *other* filters.
    counts: Vec<u64>,
    brush: BrushState,
}

/// A histogram snapshot for one dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Count per bin of records passing every other dimension's brush.
    pub counts: Vec<u64>,
}

/// The crossfilter engine over `n` records.
pub struct Crossfilter {
    n: usize,
    masks: Vec<u32>,
    dims: Vec<Dimension>,
    selection_count: usize,
}

impl Crossfilter {
    /// New engine over `n` records with no dimensions.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            masks: vec![0; n],
            dims: Vec::new(),
            selection_count: n,
        }
    }

    /// Add a numeric dimension with explicit bin edges (ascending). Bin `i`
    /// holds values in `[edges[i-1], edges[i])` with open outer bins,
    /// mirroring `vexus_data::Schema` numeric binning.
    ///
    /// # Panics
    /// Panics if `values.len() != n` or the dimension limit is reached.
    pub fn add_numeric(&mut self, values: Vec<f64>, edges: &[f64]) -> DimId {
        assert_eq!(values.len(), self.n, "one value per record required");
        assert!(self.dims.len() < MAX_DIMS, "dimension limit reached");
        let mut sorted: Vec<u32> = (0..self.n as u32).collect();
        sorted.sort_by(|&a, &b| {
            values[a as usize]
                .partial_cmp(&values[b as usize])
                .expect("values must not be NaN")
        });
        let n_bins = edges.len() + 1;
        let bin_of: Vec<u32> = values
            .iter()
            .map(|&v| edges.partition_point(|&e| e <= v) as u32)
            .collect();
        let counts = initial_counts(&bin_of, n_bins, self.n);
        self.dims.push(Dimension {
            kind: DimKind::Numeric {
                values,
                sorted,
                brushed: None,
            },
            bin_of,
            n_bins,
            counts,
            brush: BrushState::None,
        });
        DimId(self.dims.len() - 1)
    }

    /// Add a categorical dimension: `cats[r]` is the category (= bin) of
    /// record `r`, in `0..n_cats`.
    pub fn add_categorical(&mut self, cats: Vec<u32>, n_cats: usize) -> DimId {
        assert_eq!(cats.len(), self.n, "one category per record required");
        assert!(self.dims.len() < MAX_DIMS, "dimension limit reached");
        assert!(
            cats.iter().all(|&c| (c as usize) < n_cats),
            "category out of range"
        );
        let mut by_cat: Vec<Vec<u32>> = vec![Vec::new(); n_cats];
        for (r, &c) in cats.iter().enumerate() {
            by_cat[c as usize].push(r as u32);
        }
        let counts = initial_counts(&cats, n_cats, self.n);
        self.dims.push(Dimension {
            kind: DimKind::Categorical {
                allowed: vec![true; n_cats],
                by_cat,
                active: false,
            },
            bin_of: cats,
            n_bins: n_cats,
            counts,
            brush: BrushState::None,
        });
        DimId(self.dims.len() - 1)
    }

    /// Records currently passing **all** brushes.
    pub fn selection_count(&self) -> usize {
        self.selection_count
    }

    /// Ids of selected records (ascending).
    pub fn selected(&self) -> Vec<u32> {
        (0..self.n as u32)
            .filter(|&r| self.masks[r as usize] == 0)
            .collect()
    }

    /// The current brush of a dimension.
    pub fn brush(&self, dim: DimId) -> &BrushState {
        &self.dims[dim.0].brush
    }

    /// Histogram of a dimension (reflecting all *other* brushes).
    pub fn histogram(&self, dim: DimId) -> Histogram {
        Histogram {
            counts: self.dims[dim.0].counts.clone(),
        }
    }

    /// Top-`k` selected records ordered by a numeric dimension, descending —
    /// the "updated list of selected users shown in a table".
    ///
    /// # Panics
    /// Panics if the dimension is categorical.
    pub fn top(&self, dim: DimId, k: usize) -> Vec<u32> {
        match &self.dims[dim.0].kind {
            DimKind::Numeric { sorted, .. } => sorted
                .iter()
                .rev()
                .filter(|&&r| self.masks[r as usize] == 0)
                .take(k)
                .copied()
                .collect(),
            DimKind::Categorical { .. } => panic!("top() requires a numeric dimension"),
        }
    }

    /// Brush a numeric dimension to `[lo, hi)`. Incremental: touches only
    /// records whose pass/fail status changes.
    ///
    /// # Panics
    /// Panics if the dimension is categorical.
    pub fn brush_range(&mut self, dim: DimId, lo: f64, hi: f64) {
        let bit = 1u32 << dim.0;
        let (old_interval, new_interval) = match &mut self.dims[dim.0].kind {
            DimKind::Numeric {
                values,
                sorted,
                brushed,
            } => {
                let a = sorted.partition_point(|&r| values[r as usize] < lo);
                let b = sorted.partition_point(|&r| values[r as usize] < hi);
                let old = brushed.unwrap_or((0, sorted.len()));
                *brushed = Some((a, b));
                (old, (a, b))
            }
            DimKind::Categorical { .. } => panic!("brush_range requires a numeric dimension"),
        };
        self.dims[dim.0].brush = BrushState::Range(lo, hi);
        self.apply_interval_change(dim, bit, old_interval, new_interval);
    }

    /// Brush a categorical dimension to the given allowed categories.
    ///
    /// # Panics
    /// Panics if the dimension is numeric or a category is out of range.
    pub fn brush_categories(&mut self, dim: DimId, allowed_cats: &[u32]) {
        let bit = 1u32 << dim.0;
        // Compute toggles against current allowed set.
        let toggles: Vec<(u32, bool)> = match &mut self.dims[dim.0].kind {
            DimKind::Categorical {
                allowed, active, ..
            } => {
                let mut next = vec![false; allowed.len()];
                for &c in allowed_cats {
                    next[c as usize] = true;
                }
                if !*active {
                    // Everything was implicitly allowed.
                    for a in allowed.iter_mut() {
                        *a = true;
                    }
                }
                *active = true;
                let t: Vec<(u32, bool)> = allowed
                    .iter()
                    .zip(&next)
                    .enumerate()
                    .filter(|(_, (o, n))| o != n)
                    .map(|(c, (_, &n))| (c as u32, n))
                    .collect();
                allowed.copy_from_slice(&next);
                t
            }
            DimKind::Numeric { .. } => panic!("brush_categories requires a categorical dimension"),
        };
        self.dims[dim.0].brush = BrushState::Categories(allowed_cats.to_vec());
        for (cat, now_allowed) in toggles {
            let records = match &self.dims[dim.0].kind {
                DimKind::Categorical { by_cat, .. } => by_cat[cat as usize].clone(),
                DimKind::Numeric { .. } => unreachable!(),
            };
            for r in records {
                self.toggle(r as usize, bit, !now_allowed);
            }
        }
    }

    /// Remove the brush on a dimension (all records pass it again).
    pub fn clear_brush(&mut self, dim: DimId) {
        let bit = 1u32 << dim.0;
        match &mut self.dims[dim.0].kind {
            DimKind::Numeric {
                sorted, brushed, ..
            } => {
                let old = brushed.take().unwrap_or((0, sorted.len()));
                let full = (0, sorted.len());
                self.dims[dim.0].brush = BrushState::None;
                self.apply_interval_change(dim, bit, old, full);
            }
            DimKind::Categorical {
                allowed, active, ..
            } => {
                if !*active {
                    return;
                }
                *active = false;
                let restore: Vec<u32> = allowed
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| !a)
                    .map(|(c, _)| c as u32)
                    .collect();
                for a in allowed.iter_mut() {
                    *a = true;
                }
                self.dims[dim.0].brush = BrushState::None;
                for cat in restore {
                    let records = match &self.dims[dim.0].kind {
                        DimKind::Categorical { by_cat, .. } => by_cat[cat as usize].clone(),
                        DimKind::Numeric { .. } => unreachable!(),
                    };
                    for r in records {
                        self.toggle(r as usize, bit, false);
                    }
                }
            }
        }
    }

    /// Apply the symmetric difference between two sorted-index intervals of
    /// a numeric dimension.
    fn apply_interval_change(
        &mut self,
        dim: DimId,
        bit: u32,
        (a0, b0): (usize, usize),
        (a1, b1): (usize, usize),
    ) {
        // Records leaving the brushed interval get filtered; entering get
        // unfiltered. Work over index ranges of `sorted`.
        let mut plan: Vec<(usize, usize, bool)> = Vec::with_capacity(4);
        // In old, not in new -> now filtered.
        if a0 < a1 {
            plan.push((a0, a1.min(b0), true));
        }
        if b1 < b0 {
            plan.push((b1.max(a0), b0, true));
        }
        // In new, not in old -> now passing.
        if a1 < a0 {
            plan.push((a1, a0.min(b1), false));
        }
        if b0 < b1 {
            plan.push((b0.max(a1), b1, false));
        }
        for (from, to, filtered) in plan {
            if from >= to {
                continue;
            }
            let records: Vec<u32> = match &self.dims[dim.0].kind {
                DimKind::Numeric { sorted, .. } => sorted[from..to].to_vec(),
                DimKind::Categorical { .. } => unreachable!(),
            };
            for r in records {
                self.toggle(r as usize, bit, filtered);
            }
        }
    }

    /// Set or clear one record's filter bit and propagate to every other
    /// dimension's aggregates. This is the O(1)-per-record crossfilter core.
    fn toggle(&mut self, record: usize, bit: u32, filtered: bool) {
        let old = self.masks[record];
        let new = if filtered { old | bit } else { old & !bit };
        if old == new {
            return;
        }
        self.masks[record] = new;
        if old == 0 {
            self.selection_count -= 1;
        } else if new == 0 {
            self.selection_count += 1;
        }
        // Update each dimension whose "all others pass" status flipped.
        for (i, d) in self.dims.iter_mut().enumerate() {
            let others_old = old & !(1u32 << i);
            let others_new = new & !(1u32 << i);
            let was = others_old == 0;
            let is = others_new == 0;
            if was != is {
                let bin = d.bin_of[record] as usize;
                if is {
                    d.counts[bin] += 1;
                } else {
                    d.counts[bin] -= 1;
                }
            }
        }
    }

    /// Naive from-scratch recomputation of every aggregate — the baseline
    /// for the C8 experiment and the oracle for the consistency tests.
    pub fn recompute_naive(&self) -> (usize, Vec<Histogram>) {
        let selection = self.masks.iter().filter(|&&m| m == 0).count();
        let mut hists = Vec::with_capacity(self.dims.len());
        for (i, d) in self.dims.iter().enumerate() {
            let bit = 1u32 << i;
            let mut counts = vec![0u64; d.n_bins];
            for r in 0..self.n {
                if self.masks[r] & !bit == 0 {
                    counts[d.bin_of[r] as usize] += 1;
                }
            }
            hists.push(Histogram { counts });
        }
        (selection, hists)
    }

    /// Debug/test helper: assert all incremental state matches the naive
    /// recomputation.
    pub fn check_consistency(&self) -> bool {
        let (sel, hists) = self.recompute_naive();
        if sel != self.selection_count {
            return false;
        }
        hists
            .iter()
            .zip(&self.dims)
            .all(|(h, d)| h.counts == d.counts)
    }
}

fn initial_counts(bin_of: &[u32], n_bins: usize, _n: usize) -> Vec<u64> {
    let mut counts = vec![0u64; n_bins];
    for &b in bin_of {
        counts[b as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 6 records: ages and genders.
    fn fixture() -> (Crossfilter, DimId, DimId) {
        let mut cf = Crossfilter::new(6);
        let age = cf.add_numeric(
            vec![15.0, 22.0, 34.0, 45.0, 60.0, 70.0],
            &[18.0, 40.0, 65.0],
        );
        // genders: 0=f, 1=m
        let gender = cf.add_categorical(vec![0, 1, 0, 1, 0, 1], 2);
        (cf, age, gender)
    }

    #[test]
    fn initial_histograms_count_everything() {
        let (cf, age, gender) = fixture();
        assert_eq!(cf.selection_count(), 6);
        assert_eq!(cf.histogram(age).counts, vec![1, 2, 2, 1]);
        assert_eq!(cf.histogram(gender).counts, vec![3, 3]);
        assert!(cf.check_consistency());
    }

    #[test]
    fn range_brush_updates_other_dims_not_self() {
        let (mut cf, age, gender) = fixture();
        cf.brush_range(age, 18.0, 40.0); // records 1 (22) and 2 (34)
        assert_eq!(cf.selection_count(), 2);
        // Age histogram ignores its own brush.
        assert_eq!(cf.histogram(age).counts, vec![1, 2, 2, 1]);
        // Gender histogram sees only the two selected: one f (34), one m (22).
        assert_eq!(cf.histogram(gender).counts, vec![1, 1]);
        assert!(cf.check_consistency());
    }

    #[test]
    fn category_brush_composes_with_range() {
        let (mut cf, age, gender) = fixture();
        cf.brush_range(age, 18.0, 70.0); // drop record 0 (15) and keep 1..=4, drop 5? 70 excluded
        cf.brush_categories(gender, &[0]); // females only
                                           // Selected: records with age in [18,70) and gender f: r2 (34), r4 (60).
        assert_eq!(cf.selection_count(), 2);
        assert_eq!(cf.selected(), vec![2, 4]);
        // Gender histogram reflects only the age brush: f = {2,4}, m = {1,3}.
        assert_eq!(cf.histogram(gender).counts, vec![2, 2]);
        // Age histogram reflects only the gender brush: females at 15,34,60.
        assert_eq!(cf.histogram(age).counts, vec![1, 1, 1, 0]);
        assert!(cf.check_consistency());
    }

    #[test]
    fn rebrushing_moves_the_window_incrementally() {
        let (mut cf, age, _) = fixture();
        cf.brush_range(age, 0.0, 30.0);
        assert_eq!(cf.selection_count(), 2);
        cf.brush_range(age, 30.0, 80.0);
        assert_eq!(cf.selection_count(), 4);
        cf.brush_range(age, 30.0, 46.0);
        assert_eq!(cf.selection_count(), 2);
        assert!(cf.check_consistency());
    }

    #[test]
    fn clear_brush_restores_everything() {
        let (mut cf, age, gender) = fixture();
        cf.brush_range(age, 18.0, 40.0);
        cf.brush_categories(gender, &[1]);
        cf.clear_brush(age);
        cf.clear_brush(gender);
        assert_eq!(cf.selection_count(), 6);
        assert_eq!(cf.histogram(age).counts, vec![1, 2, 2, 1]);
        assert_eq!(cf.histogram(gender).counts, vec![3, 3]);
        assert!(cf.check_consistency());
        assert_eq!(*cf.brush(age), BrushState::None);
    }

    #[test]
    fn clear_without_brush_is_noop() {
        let (mut cf, age, gender) = fixture();
        cf.clear_brush(age);
        cf.clear_brush(gender);
        assert_eq!(cf.selection_count(), 6);
        assert!(cf.check_consistency());
    }

    #[test]
    fn top_lists_selected_by_value_desc() {
        let (mut cf, age, gender) = fixture();
        cf.brush_categories(gender, &[0]);
        assert_eq!(cf.top(age, 2), vec![4, 2]); // ages 60, 34
        assert_eq!(cf.top(age, 10), vec![4, 2, 0]);
    }

    #[test]
    fn empty_crossfilter() {
        let mut cf = Crossfilter::new(0);
        let d = cf.add_numeric(vec![], &[1.0]);
        cf.brush_range(d, 0.0, 1.0);
        assert_eq!(cf.selection_count(), 0);
        assert!(cf.check_consistency());
    }

    #[test]
    #[should_panic(expected = "numeric dimension")]
    fn brush_range_on_categorical_panics() {
        let (mut cf, _, gender) = fixture();
        cf.brush_range(gender, 0.0, 1.0);
    }

    #[test]
    fn empty_category_brush_deselects_all() {
        let (mut cf, _, gender) = fixture();
        cf.brush_categories(gender, &[]);
        assert_eq!(cf.selection_count(), 0);
        assert!(cf.check_consistency());
        cf.brush_categories(gender, &[0, 1]);
        assert_eq!(cf.selection_count(), 6);
        assert!(cf.check_consistency());
    }

    // Random operation sequences must keep incremental state identical to
    // the naive recomputation — the core crossfilter invariant.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_incremental_equals_naive(
            n in 1usize..60,
            seed_vals in proptest::collection::vec(0.0f64..100.0, 60),
            seed_cats in proptest::collection::vec(0u32..4, 60),
            ops in proptest::collection::vec((0usize..4, 0.0f64..100.0, 0.0f64..100.0, proptest::collection::vec(0u32..4, 0..4)), 1..25)
        ) {
            let vals: Vec<f64> = seed_vals[..n].to_vec();
            let cats: Vec<u32> = seed_cats[..n].to_vec();
            let mut cf = Crossfilter::new(n);
            let dn = cf.add_numeric(vals, &[25.0, 50.0, 75.0]);
            let dc = cf.add_categorical(cats, 4);
            for (kind, a, b, cat_list) in ops {
                match kind {
                    0 => cf.brush_range(dn, a.min(b), a.max(b)),
                    1 => cf.brush_categories(dc, &cat_list),
                    2 => cf.clear_brush(dn),
                    _ => cf.clear_brush(dc),
                }
                prop_assert!(cf.check_consistency(), "state diverged from naive");
            }
        }
    }
}
