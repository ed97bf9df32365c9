//! R4: CART regression tree with exact best-split search.
//!
//! scikit-learn defaults mirrored: squared-error criterion, unlimited
//! depth, `min_samples_split = 2`, `min_samples_leaf = 1`, every feature
//! at every split. The builder additionally supports sample weights
//! (needed by AdaBoost.R2), depth caps (gradient boosting uses depth 3)
//! and fitting a bootstrap given as row indices, so a single
//! implementation backs R1, R3, R4, R6 and R13.
//!
//! Growth is presorted: X is copied column-major and every column ranked
//! once per fit (per *forest*, per boosting run); a tree derives each
//! feature's row order from the ranks by counting, and a node scans one
//! contiguous range of those orders, then stable-partitions them in
//! place: `O(features · n)` per node, no allocation. Sums run in the
//! order a per-node stable sort would visit the rows, so trees are bit
//! for bit those of the textbook builder kept as the test oracle.
//!
//! A tree is one arena of nodes, each a split, a leaf or pending, and
//! one function, `TreeBuilder::grow`, turns a pending node into a leaf
//! or into a split with two pending children. `TreeBuilder::fit` runs it
//! from a worklist until nothing is pending; `TreeBuilder::lazy_leaf`
//! runs it only on the nodes a prediction's walk reaches, for a forest
//! whose every query is known while it grows (a sketched forecast).

use crate::model::Regressor;
use crate::{check_finite, check_xy, MlError};
use linalg::Matrix;
use std::cmp::Ordering;
use std::ops::Range;

/// One tree node, 16 bytes: a split, a leaf or pending. A split's two
/// children sit side by side, the left one `children` nodes further on,
/// so whole trees concatenate into one arena without rebasing. A leaf
/// has `children == 0` and no [`SPLIT`] bit, so a walk that reaches it
/// steps to itself. A pending node holds what its growth needs: see
/// [`Node::pending`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split threshold, or the leaf's value.
    value: f64,
    /// Offset to the left of the two children; `0` on a leaf.
    children: u32,
    /// Split feature with [`SPLIT`] set; `0` on a leaf.
    feature: u32,
}

/// Flag on [`Node::feature`]: shifted down it is 1 on a split, 0 on a
/// leaf.
const SPLIT: u32 = 1 << 31;

/// [`Node::feature`] of a pending node: not a split, and a feature no
/// row has, so a walk that steps it panics instead of misreading it.
const PENDING: u32 = !SPLIT;

impl Node {
    fn leaf(value: f64) -> Node {
        Node {
            value,
            children: 0,
            feature: 0,
        }
    }

    /// A node not grown yet: `[lo, hi)` of its tree's orders, packed
    /// into `value`'s bits, and its depth in `children`.
    fn pending(lo: usize, hi: usize, depth: usize) -> Node {
        Node {
            value: f64::from_bits(lo as u64 | (hi as u64) << 32),
            children: depth as u32,
            feature: PENDING,
        }
    }

    /// `(lo, hi, depth)` of a pending node; `None` once it has grown.
    fn range(self) -> Option<(usize, usize, usize)> {
        let bits = self.value.to_bits();
        (self.feature == PENDING).then_some((
            bits as u32 as usize,
            (bits >> 32) as usize,
            self.children as usize,
        ))
    }

    /// How far the walk moves for `row` from a grown node: `children` to
    /// the left child when `row[feature] <= threshold`, one more to the
    /// right child otherwise — so NaN goes right — and 0 on a leaf. An
    /// arithmetic select, not a branch: which way a fresh row goes is a
    /// coin flip to the predictor.
    fn step(self, row: &[f64]) -> usize {
        let left = (row[(self.feature & !SPLIT) as usize] <= self.value) as u32;
        (self.children + (1 - left) * (self.feature >> 31)) as usize
    }
}

/// Where one tree of a [`Forest`] starts and how deep it goes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TreeRef {
    root: usize,
    depth: usize,
}

/// Trees walked together by [`Forest::leaves`]: enough independent
/// loads in flight to hide a cache miss per level.
const K: usize = 8;

/// Fitted trees in one contiguous node arena — every tree model's
/// storage, from the single tree of a [`DecisionTreeRegressor`] to the
/// hundred of a forest or a boosting run.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Forest {
    nodes: Vec<Node>,
    trees: Vec<TreeRef>,
    n_features: usize,
}

impl Forest {
    /// Number of trees.
    pub(crate) fn len(&self) -> usize {
        self.trees.len()
    }

    /// Joins per-worker chunks, in order, into one exactly-sized arena.
    pub(crate) fn concat(chunks: Vec<Forest>) -> Forest {
        let mut all = Forest {
            nodes: Vec::with_capacity(chunks.iter().map(|c| c.nodes.len()).sum()),
            trees: Vec::with_capacity(chunks.iter().map(Forest::len).sum()),
            n_features: chunks.first().map_or(0, |c| c.n_features),
        };
        for chunk in chunks {
            let base = all.nodes.len();
            all.nodes.extend_from_slice(&chunk.nodes);
            all.trees.extend(chunk.trees.iter().map(|t| TreeRef {
                root: base + t.root,
                ..*t
            }));
        }
        all
    }

    /// Drops the last tree (a boosting round that was fitted, then
    /// rejected).
    pub(crate) fn pop(&mut self) {
        if let Some(last) = self.trees.pop() {
            self.nodes.truncate(last.root);
        }
    }

    /// `NotFitted` before a fit; `BadShape` unless rows are as wide as
    /// the ones the trees were grown on.
    pub(crate) fn check_cols(&self, cols: usize) -> Result<(), MlError> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        if cols != self.n_features {
            return Err(MlError::BadShape(format!(
                "trees fitted on {} features, got {cols}",
                self.n_features
            )));
        }
        Ok(())
    }

    /// The one traversal: feeds `emit` the value of the leaf `row` lands
    /// on in each of `trees`, in tree order. [`K`] trees descend in
    /// lock-step for as many levels as the deepest of them has; a
    /// shallower tree waits on its leaf. The cursor array is always `K`
    /// wide so the level loop unrolls into registers: the idle lanes of
    /// a short group walk its first tree again, unheard.
    pub(crate) fn leaves(&self, trees: Range<usize>, row: &[f64], mut emit: impl FnMut(f64)) {
        for group in self.trees[trees].chunks(K) {
            let mut at = [group[0].root; K];
            let mut depth = 0;
            for (at, tree) in at.iter_mut().zip(group) {
                *at = tree.root;
                depth = depth.max(tree.depth);
            }
            for _ in 0..depth {
                for at in &mut at {
                    *at += self.nodes[*at].step(row);
                }
            }
            for &at in &at[..group.len()] {
                emit(self.nodes[at].value);
            }
        }
    }

    /// Tree `k`'s prediction for `row`.
    pub(crate) fn leaf(&self, k: usize, row: &[f64]) -> f64 {
        let mut value = f64::NAN;
        self.leaves(k..k + 1, row, |leaf| value = leaf);
        value
    }

    /// Tree `k`'s prediction for every row of `x`.
    pub(crate) fn predict_tree(&self, k: usize, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|i| self.leaf(k, x.row(i))).collect()
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionTreeRegressor {
    /// Maximum depth (`None` = grow until pure / exhausted).
    pub max_depth: Option<usize>,
    /// One tree, or none before a fit.
    tree: Forest,
}

impl DecisionTreeRegressor {
    /// A tree with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Depth-limited tree.
    pub fn with_max_depth(depth: usize) -> Self {
        DecisionTreeRegressor {
            max_depth: Some(depth),
            tree: Forest::default(),
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.tree.nodes.len()
    }

    /// Tree depth (0 for a stump-less single leaf).
    pub fn depth(&self) -> usize {
        self.tree.trees.first().map_or(0, |t| t.depth)
    }

    /// Grows the tree on every row `pre` ranked.
    fn fit_presorted(&mut self, pre: &Presort, y: &[f64], w: Option<&[f64]>) {
        self.tree = Forest::default();
        TreeBuilder::new(pre).fit(self.max_depth, &pre.all_rows(), y, w, &mut self.tree);
    }

    /// Fits with per-sample weights, checked — shapes, signs, every
    /// value finite — as a fit checks `x` and `y`.
    #[cfg(test)]
    fn fit_weighted(&mut self, x: &Matrix, y: &[f64], w: &[f64]) -> Result<(), MlError> {
        let pre = Presort::new(x, y)?;
        if w.len() != y.len() {
            return Err(MlError::BadShape("weights length mismatch".into()));
        }
        if w.iter().any(|w| *w < 0.0) {
            return Err(MlError::BadHyperparameter("negative sample weight".into()));
        }
        check_finite("sample weights", w)?;
        check_split_sums("sample weights", w.iter().copied())?;
        check_split_sums("weighted y", w.iter().zip(y).map(|(w, y)| w * y))?;
        self.fit_presorted(&pre, y, Some(w));
        Ok(())
    }
}

/// Rejects per-row values too large to score a split with. A tree sums
/// at most as many of them as there are rows (a sample of the rows,
/// repeats allowed) and squares the sums, so `rows · max|v|`, squared,
/// must be finite. Then no sum overflows and every split score is
/// finite or `+∞`, never NaN: a NaN is the one score on which
/// [`TreeBuilder::best_split`]'s max-by-select and a sequential
/// strict-`>` scan (which keeps a NaN met first) disagree.
fn check_split_sums(what: &str, values: impl ExactSizeIterator<Item = f64>) -> Result<(), MlError> {
    let rows = values.len() as f64;
    let reach = rows * values.fold(0.0, |m: f64, v| m.max(v.abs()));
    if (reach * reach).is_finite() {
        Ok(())
    } else {
        Err(MlError::Numeric(format!(
            "{what} too large: a split score could overflow"
        )))
    }
}

/// The once-per-fit half of the builder, shared by all trees of a forest
/// or boosting run: X column-major and, per column, every row's dense
/// rank among the distinct values (`==` groups: `-0.0` ties with `0.0`).
pub(crate) struct Presort {
    rows: usize,
    features: usize,
    /// `cols[f * rows + r]` is `x[(r, f)]`.
    cols: Vec<f64>,
    /// Same layout as `cols`.
    rank: Vec<u32>,
}

impl Presort {
    /// Copies and ranks `x`. Errors on mismatched or empty `x`/`y`, on a
    /// non-finite value in either (the ranking sort compares
    /// infallibly), and on a `y` too large for [`check_split_sums`].
    pub(crate) fn new(x: &Matrix, y: &[f64]) -> Result<Presort, MlError> {
        check_xy(x, y)?;
        check_finite("y", y)?;
        check_split_sums("y", y.iter().copied())?;
        let n = x.rows();
        // Rows, ranks and node offsets are kept as `u32`; a tree on `n`
        // samples has fewer than `2 n` nodes.
        if n.max(x.cols()) > i32::MAX as usize {
            return Err(MlError::BadShape("more than 2^31 rows or columns".into()));
        }
        let cols: Vec<f64> = (0..x.cols())
            .flat_map(|f| (0..n).map(move |r| x[(r, f)]))
            .collect();
        check_finite("X", &cols)?;
        let mut rank = vec![0u32; cols.len()];
        for f in 0..x.cols() {
            let (col, rank) = (&cols[f * n..][..n], &mut rank[f * n..][..n]);
            let mut by_value: Vec<usize> = (0..n).collect();
            by_value
                .sort_unstable_by(|&a, &b| col[a].partial_cmp(&col[b]).unwrap_or(Ordering::Equal));
            for pair in by_value.windows(2) {
                let tie = col[pair[1]] == col[pair[0]];
                rank[pair[1]] = rank[pair[0]] + !tie as u32;
            }
        }
        Ok(Presort {
            rows: n,
            features: x.cols(),
            cols,
            rank,
        })
    }

    /// The sample that is every row once, in order.
    pub(crate) fn all_rows(&self) -> Vec<u32> {
        (0..self.rows as u32).collect()
    }
}

/// One tree's sample, ordered for growth: `features + 1` orders of its
/// `len` rows. Order `f` is sorted by feature `f`, equal values in sample
/// order; the last is the sample itself. A node is one `[lo, hi)` range
/// of every order, and only its own growth partitions that range.
#[derive(Default)]
pub(crate) struct Orders {
    order: Vec<u32>,
    len: usize,
}

/// The per-tree half: scratch over a [`Presort`], reused by every tree
/// a worker fits so that growing allocates per tree, never per node.
pub(crate) struct TreeBuilder<'a> {
    pre: &'a Presort,
    /// The orders of the tree [`TreeBuilder::fit`] is growing.
    orders: Orders,
    /// Rows going right while a range is partitioned.
    scratch: Vec<u32>,
    /// Per source row: left of the split being applied?
    goes_left: Vec<bool>,
    /// Counting-sort cursors, one per rank.
    cursor: Vec<u32>,
    /// Per position of the range being scanned, in the feature's order:
    /// the running `(Σw, Σw·y)` up to and including that row.
    prefix: Vec<(f64, f64)>,
    /// The row's value of the feature being scanned, same positions.
    xs: Vec<f64>,
}

/// One tree's growth inputs.
struct Task<'t> {
    max_depth: Option<usize>,
    y: &'t [f64],
    w: Option<&'t [f64]>,
}

impl Task<'_> {
    /// `(w, w·y)` of one source row.
    fn weigh(&self, row: u32) -> (f64, f64) {
        let w = self.w.map_or(1.0, |w| w[row as usize]);
        (w, w * self.y[row as usize])
    }
}

/// A tree that grows only where walks go: see [`TreeBuilder::lazy_leaf`].
pub(crate) struct LazyTree<'t> {
    task: Task<'t>,
    orders: Orders,
    /// The root first, then every pair of children in the order their
    /// parents grew.
    nodes: Vec<Node>,
}

impl<'a> TreeBuilder<'a> {
    pub(crate) fn new(pre: &'a Presort) -> Self {
        TreeBuilder {
            pre,
            orders: Orders::default(),
            scratch: Vec::new(),
            goes_left: vec![false; pre.rows],
            cursor: Vec::new(),
            prefix: Vec::new(),
            xs: Vec::new(),
        }
    }

    /// The per-tree set-up: counting-sorts `sample` into `orders` and
    /// sizes the scratch for it.
    fn sort(&mut self, sample: &[u32], orders: &mut Orders) {
        let (n, nf, len) = (self.pre.rows, self.pre.features, sample.len());
        orders.len = len;
        orders.order.resize((nf + 1) * len, 0);
        // Grown, never shrunk: a sketch steps trees it sorted earlier.
        let room = len.max(self.scratch.len());
        self.scratch.resize(room, 0);
        self.prefix.resize(room, (0.0, 0.0));
        self.xs.resize(room, 0.0);
        for f in 0..nf {
            // Counting sort by rank. It is stable, so rows with equal
            // values stay in sample order: what a stable sort of the
            // gathered rows by value yields, without comparing.
            let rank = &self.pre.rank[f * n..][..n];
            self.cursor.clear();
            self.cursor.resize(n + 1, 0);
            for &r in sample {
                self.cursor[rank[r as usize] as usize + 1] += 1;
            }
            for g in 1..n {
                self.cursor[g] += self.cursor[g - 1];
            }
            let sorted = &mut orders.order[f * len..][..len];
            for &r in sample {
                let at = &mut self.cursor[rank[r as usize] as usize];
                sorted[*at as usize] = r;
                *at += 1;
            }
        }
        orders.order[nf * len..].copy_from_slice(sample);
    }

    /// Grows one tree on `sample` — source-row indices, repeats allowed
    /// (a bootstrap) — with `y` and `w` indexed by *source* row; `None`
    /// weighs every sample 1, which keeps the weight sums exact integers.
    /// The tree's nodes are written straight onto the end of `forest`.
    pub(crate) fn fit(
        &mut self,
        max_depth: Option<usize>,
        sample: &[u32],
        y: &[f64],
        w: Option<&[f64]>,
        forest: &mut Forest,
    ) {
        let mut orders = std::mem::take(&mut self.orders);
        self.sort(sample, &mut orders);
        let root = forest.nodes.len();
        forest.nodes.push(Node::pending(0, sample.len(), 0));
        let task = Task { max_depth, y, w };
        let depth = self.finish(&task, &mut orders, &mut forest.nodes, root);
        forest.trees.push(TreeRef { root, depth });
        forest.n_features = self.pre.features;
        self.orders = orders;
    }

    /// The worklist: walks the tree rooted at `nodes[root]` depth
    /// first, left subtree first, growing every pending node it meets,
    /// and returns the depth of the deepest one it grew. A split appends
    /// its children to the arena, so a left child's children land right
    /// behind it; in level order each level would land past the whole
    /// level above, farther from the walk's last load.
    fn finish(
        &mut self,
        t: &Task,
        orders: &mut Orders,
        nodes: &mut Vec<Node>,
        root: usize,
    ) -> usize {
        let (mut stack, mut depth) = (vec![root], 0);
        while let Some(at) = stack.pop() {
            if let Some(grown) = self.grow(t, orders, nodes, at) {
                depth = depth.max(grown);
            }
            if nodes[at].feature & SPLIT != 0 {
                let left = at + nodes[at].children as usize;
                stack.extend([left + 1, left]);
            }
        }
        depth
    }

    /// Sets up a tree on `sample` for [`TreeBuilder::lazy_leaf`]: sorted,
    /// with only its root, pending.
    pub(crate) fn lazy<'t>(
        &mut self,
        max_depth: Option<usize>,
        sample: &[u32],
        y: &'t [f64],
    ) -> LazyTree<'t> {
        let mut orders = Orders::default();
        self.sort(sample, &mut orders);
        LazyTree {
            task: Task {
                max_depth,
                y,
                w: None,
            },
            orders,
            nodes: vec![Node::pending(0, sample.len(), 0)],
        }
    }

    /// `tree`'s prediction for `row`, growing each pending node the walk
    /// reaches. The order nodes grow in does not matter: a node's growth
    /// reads and partitions only its own range, which its parent's
    /// growth fixed and no other node's touches. So every node a walk
    /// reaches is, bit for bit, the one [`TreeBuilder::fit`] grows.
    pub(crate) fn lazy_leaf(&mut self, tree: &mut LazyTree, row: &[f64]) -> f64 {
        let mut at = 0;
        loop {
            self.grow(&tree.task, &mut tree.orders, &mut tree.nodes, at);
            match tree.nodes[at].step(row) {
                0 => return tree.nodes[at].value,
                step => at += step,
            }
        }
    }

    /// The one growth function. A pending `nodes[at]` becomes a leaf
    /// holding the weighted mean of its range (summed in sample order)
    /// or, unless a stop rule holds or no split pays, a split, applied
    /// to the orders, whose two pending children go onto the end of
    /// `nodes`. Returns the grown node's depth; `None`, touching
    /// nothing, if it had grown already.
    fn grow(
        &mut self,
        t: &Task,
        orders: &mut Orders,
        nodes: &mut Vec<Node>,
        at: usize,
    ) -> Option<usize> {
        let (lo, hi, depth) = nodes[at].range()?;
        let nf = self.pre.features;
        let (mut sw, mut swy) = (0.0, 0.0);
        for &r in &orders.order[nf * orders.len..][lo..hi] {
            let (w, wy) = t.weigh(r);
            sw += w;
            swy += wy;
        }
        nodes[at] = Node::leaf(if sw <= 0.0 { 0.0 } else { swy / sw });
        if hi - lo < 2 || t.max_depth.is_some_and(|d| depth >= d) || sw <= 0.0 {
            return Some(depth);
        }
        let Some((feature, threshold)) = self.best_split(t, orders, lo, hi, swy * swy / sw) else {
            return Some(depth);
        };
        let Some(n_left) = self.partition(orders, lo, hi, feature, threshold) else {
            return Some(depth);
        };
        // `Presort::new` bounds rows and features, so both fit 31 bits.
        nodes[at] = Node {
            value: threshold,
            children: (nodes.len() - at) as u32,
            feature: feature as u32 | SPLIT,
        };
        nodes.push(Node::pending(lo, lo + n_left, depth + 1));
        nodes.push(Node::pending(lo + n_left, hi, depth + 1));
        Some(depth)
    }

    /// The weighted-variance-minimizing `(feature, threshold)`, or `None`
    /// if no split improves on the parent by more than `1e-12`.
    ///
    /// Two passes per feature, neither with a data-dependent branch. The
    /// first walks the feature's order once, recording the running sums
    /// and the values; its last sums are the totals, from the adds of a
    /// separate total loop in the same order. The second scores every cut
    /// `k` (rows `..=k` go left) and keeps the running maximum by select,
    /// a cut between equal values scoring `-∞`. Cuts that leave a side no
    /// weight are not scanned.
    ///
    /// Strict `>` over cuts, then over features, keeps the first
    /// `(feature, k)` holding the maximum. That is the cut a sequential
    /// scan returns when it drops scores `<= parent + 1e-12` and keeps
    /// only a strictly better one: if the maximum clears the floor, the
    /// scan drops no cut that holds it, and it keeps the first. The two
    /// would part ways only on a NaN score, which [`Presort::new`] rules
    /// out.
    fn best_split(
        &mut self,
        t: &Task,
        orders: &Orders,
        lo: usize,
        hi: usize,
        parent: f64,
    ) -> Option<(usize, f64)> {
        let n = hi - lo;
        let (prefix, xs) = (&mut self.prefix[..n], &mut self.xs[..n]);
        let (mut best, mut split) = (f64::NEG_INFINITY, (0, 0.0));
        for feature in 0..self.pre.features {
            let col = &self.pre.cols[feature * self.pre.rows..][..self.pre.rows];
            let order = &orders.order[feature * orders.len..][lo..hi];
            let (mut sw, mut swy) = (0.0, 0.0);
            for ((&r, p), x) in order.iter().zip(prefix.iter_mut()).zip(xs.iter_mut()) {
                let (w, wy) = t.weigh(r);
                sw += w;
                swy += wy;
                *p = (sw, swy);
                *x = col[r as usize];
            }
            // Weights are non-negative, so the running `Σw` never falls:
            // the cuts with weight on both sides are one range, past the
            // leading positions where it is still 0 and short of the
            // trailing ones where it has reached the total (the last
            // position always has). With unit weights both scans stop
            // within two rows.
            let empty = prefix.iter().take_while(|p| p.0 <= 0.0).count();
            let full = prefix.iter().rev().take_while(|p| p.0 >= sw).count();
            let (from, to) = (empty, n - full);
            let (mut top, mut at) = (f64::NEG_INFINITY, 0);
            let cuts = prefix[from..to.max(from)].iter().zip(xs[from..].windows(2));
            for (k, (&(lw, lwy), x)) in (from..).zip(cuts) {
                let (rw, rwy) = (sw - lw, swy - lwy);
                // Maximizing sum of child (weighted mean)^2 * weight is
                // equivalent to minimizing weighted SSE. No cut falls
                // between equal values.
                let score = lwy * lwy / lw + rwy * rwy / rw;
                let apart = x[0] != x[1];
                let score = if apart { score } else { f64::NEG_INFINITY };
                let take = score > top;
                top = if take { score } else { top };
                at = if take { k } else { at };
            }
            if top > best {
                best = top;
                split = (feature, 0.5 * (xs[at] + xs[at + 1]));
            }
        }
        // Splits must strictly improve on the parent, or a constant
        // target would split forever on noise-free ties.
        (best > parent + 1e-12).then_some(split)
    }

    /// Stable-partitions `[lo, hi)` of every order by
    /// `x[feature] <= threshold` and returns how many samples went left;
    /// `None`, orders untouched, when that is none or all of them.
    fn partition(
        &mut self,
        orders: &mut Orders,
        lo: usize,
        hi: usize,
        feature: usize,
        at: f64,
    ) -> Option<usize> {
        let col = &self.pre.cols[feature * self.pre.rows..][..self.pre.rows];
        let mut n_left = 0;
        for &r in &orders.order[self.pre.features * orders.len..][lo..hi] {
            let left = col[r as usize] <= at;
            self.goes_left[r as usize] = left;
            n_left += left as usize;
        }
        if n_left == 0 || n_left == hi - lo {
            return None;
        }
        for order in orders.order.chunks_exact_mut(orders.len) {
            let range = &mut order[lo..hi];
            let (mut l, mut r) = (0, 0);
            for k in 0..range.len() {
                // Branch-free: write both sides, advance one.
                let row = range[k];
                let left = self.goes_left[row as usize];
                range[l] = row;
                self.scratch[r] = row;
                l += left as usize;
                r += !left as usize;
            }
            range[l..].copy_from_slice(&self.scratch[..r]);
        }
        Some(n_left)
    }
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        let pre = Presort::new(x, y)?;
        self.fit_presorted(&pre, y, None);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        self.tree.check_cols(x.cols())?;
        Ok(self.tree.predict_tree(0, x))
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64, MlError> {
        self.tree.check_cols(row.len())?;
        Ok(self.tree.leaf(0, row))
    }
}

/// The builder and the node layout this module's replaced, kept as the
/// test oracle: every node re-sorts its rows once per candidate feature,
/// and a prediction chases child indices through an enum, one branch per
/// level.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    pub(super) enum Node {
        Leaf {
            value: f64,
        },
        Split {
            feature: usize,
            threshold: f64,
            left: usize,
            right: usize,
        },
    }

    pub(super) fn predict_row(nodes: &[Node], row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The oracle's pre-order tree renumbered in the order the
    /// builder's worklist grows one: depth first, left subtree first,
    /// each split's two children side by side at the end of the arena
    /// when the split is placed.
    pub(super) fn flatten(nodes: &[Node]) -> Vec<super::Node> {
        let mut flat = vec![super::Node::leaf(0.0)];
        // (oracle index, flat index) of the nodes still to place.
        let mut stack = vec![(0, 0)];
        while let Some((i, at)) = stack.pop() {
            flat[at] = match nodes[i] {
                Node::Leaf { value } => super::Node::leaf(value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let pair = flat.len();
                    flat.extend([super::Node::leaf(0.0); 2]);
                    stack.extend([(right, pair + 1), (left, pair)]);
                    super::Node {
                        value: threshold,
                        children: (pair - at) as u32,
                        feature: feature as u32 | super::SPLIT,
                    }
                }
            };
        }
        flat
    }

    pub(super) fn fit(max_depth: Option<usize>, x: &Matrix, y: &[f64], w: &[f64]) -> Vec<Node> {
        let mut nodes = Vec::new();
        let idx: Vec<u32> = (0..x.rows() as u32).collect();
        grow(&mut nodes, max_depth, x, y, w, idx, 0);
        nodes
    }

    fn grow(
        nodes: &mut Vec<Node>,
        max_depth: Option<usize>,
        x: &Matrix,
        y: &[f64],
        w: &[f64],
        idx: Vec<u32>,
        depth: usize,
    ) -> usize {
        let (w_sum, mean) = weighted_mean(y, w, &idx);
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean });
            nodes.len() - 1
        };
        if idx.len() < 2 || max_depth.is_some_and(|d| depth >= d) || w_sum <= 0.0 {
            return make_leaf(nodes);
        }
        let Some(best) = best_split(x, y, w, &idx) else {
            return make_leaf(nodes);
        };
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        for &i in &idx {
            if x[(i as usize, best.feature)] <= best.threshold {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf(nodes);
        }
        // reserve this node's slot, then grow children
        let me = nodes.len();
        nodes.push(Node::Leaf { value: mean }); // placeholder
        let left = grow(nodes, max_depth, x, y, w, left_idx, depth + 1);
        let right = grow(nodes, max_depth, x, y, w, right_idx, depth + 1);
        nodes[me] = Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
        };
        me
    }

    struct SplitCandidate {
        feature: usize,
        threshold: f64,
    }

    fn weighted_mean(y: &[f64], w: &[f64], idx: &[u32]) -> (f64, f64) {
        let mut sw = 0.0;
        let mut swy = 0.0;
        for &i in idx {
            sw += w[i as usize];
            swy += w[i as usize] * y[i as usize];
        }
        if sw <= 0.0 {
            (0.0, 0.0)
        } else {
            (sw, swy / sw)
        }
    }

    /// Finds the weighted-variance-minimizing split, or `None` if no
    /// valid split improves on the parent.
    fn best_split(x: &Matrix, y: &[f64], w: &[f64], idx: &[u32]) -> Option<SplitCandidate> {
        let mut best: Option<(f64, SplitCandidate)> = None;
        // Splits must strictly improve on the parent's score, otherwise a
        // constant target would split forever on noise-free ties.
        let parent_w: f64 = idx.iter().map(|&i| w[i as usize]).sum();
        let parent_wy: f64 = idx.iter().map(|&i| w[i as usize] * y[i as usize]).sum();
        let parent_score = if parent_w > 0.0 {
            parent_wy * parent_wy / parent_w
        } else {
            0.0
        };
        let mut order: Vec<u32> = Vec::with_capacity(idx.len());
        for feature in 0..x.cols() {
            order.clear();
            order.extend_from_slice(idx);
            order.sort_by(|&a, &b| {
                x[(a as usize, feature)]
                    .partial_cmp(&x[(b as usize, feature)])
                    .expect("NaN feature value")
            });
            // running prefix sums of w, w*y, w*y^2
            let total_w: f64 = order.iter().map(|&i| w[i as usize]).sum();
            let total_wy: f64 = order.iter().map(|&i| w[i as usize] * y[i as usize]).sum();
            if total_w <= 0.0 {
                continue;
            }
            let mut left_w = 0.0;
            let mut left_wy = 0.0;
            for k in 0..order.len() - 1 {
                let i = order[k] as usize;
                left_w += w[i];
                left_wy += w[i] * y[i];
                let xv = x[(i, feature)];
                let xn = x[(order[k + 1] as usize, feature)];
                if xv == xn {
                    continue; // cannot split between equal values
                }
                let right_w = total_w - left_w;
                if left_w <= 0.0 || right_w <= 0.0 {
                    continue;
                }
                let right_wy = total_wy - left_wy;
                // Maximizing sum of child (weighted mean)^2 * weight is
                // equivalent to minimizing weighted SSE.
                let score = left_wy * left_wy / left_w + right_wy * right_wy / right_w;
                if score <= parent_score + 1e-12 {
                    continue;
                }
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((
                        score,
                        SplitCandidate {
                            feature,
                            threshold: 0.5 * (xv + xn),
                        },
                    ));
                }
            }
        }
        best.map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn step_data() -> (Matrix, Vec<f64>) {
        // piecewise-constant target: perfect for a tree
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y = rows
            .iter()
            .map(|r| if r[0] < 20.0 { 1.0 } else { 5.0 })
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_step_function_exactly() {
        let (x, y) = step_data();
        let mut t = DecisionTreeRegressor::new();
        t.fit(&x, &y).unwrap();
        let pred = t.predict(&x).unwrap();
        assert_eq!(rmse(&y, &pred), 0.0);
        // One split suffices.
        assert!(t.depth() >= 1);
    }

    #[test]
    fn unlimited_tree_memorizes_training_data() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| ((i * 37) % 11) as f64).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTreeRegressor::new();
        t.fit(&x, &y).unwrap();
        assert_eq!(rmse(&y, &t.predict(&x).unwrap()), 0.0);
    }

    #[test]
    fn depth_cap_is_respected() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTreeRegressor::with_max_depth(3);
        t.fit(&x, &y).unwrap();
        assert!(t.depth() <= 3);
        // At most 2^3 = 8 leaves -> at most 15 nodes.
        assert!(t.node_count() <= 15);
    }

    #[test]
    fn predictions_within_target_range() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i as f64 * 0.17).sin()]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 3.0 + 1.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTreeRegressor::with_max_depth(4);
        t.fit(&x, &y).unwrap();
        let (lo, hi) = y
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
        for p in t.predict(&x).unwrap() {
            assert!(p >= lo - 1e-12 && p <= hi + 1e-12);
        }
    }

    #[test]
    fn zero_weight_samples_are_ignored() {
        let (x, mut y) = step_data();
        // corrupt two labels but zero their weight
        y[0] = 1e6;
        y[39] = -1e6;
        let mut w = vec![1.0; 40];
        w[0] = 0.0;
        w[39] = 0.0;
        let mut t = DecisionTreeRegressor::new();
        t.fit_weighted(&x, &y, &w).unwrap();
        // prediction at x=10 must still be ~1.0 (the clean left value)
        let p = t.predict_row(&[10.0]).unwrap();
        assert!((p - 1.0).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let (x, _) = step_data();
        let y = vec![7.0; 40];
        let mut t = DecisionTreeRegressor::new();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_row(&[3.0]).unwrap(), 7.0);
    }

    #[test]
    fn wrong_feature_count_rejected() {
        let (x, y) = step_data();
        let mut t = DecisionTreeRegressor::new();
        t.fit(&x, &y).unwrap();
        assert!(t.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn negative_weights_rejected() {
        let (x, y) = step_data();
        let mut w = vec![1.0; 40];
        w[3] = -0.5;
        let mut t = DecisionTreeRegressor::new();
        assert!(t.fit_weighted(&x, &y, &w).is_err());
    }

    #[test]
    fn unfitted_errors() {
        assert_eq!(
            DecisionTreeRegressor::new()
                .predict(&Matrix::zeros(1, 1))
                .unwrap_err(),
            MlError::NotFitted
        );
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        let (x, y) = step_data();
        let ones = vec![1.0; 40];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut xb = x.clone();
            xb[(7, 0)] = bad;
            let mut yb = y.clone();
            yb[7] = bad;
            let mut t = DecisionTreeRegressor::new();
            assert!(matches!(t.fit(&xb, &y), Err(MlError::Numeric(_))));
            assert!(matches!(t.fit(&x, &yb), Err(MlError::Numeric(_))));
            assert!(matches!(
                t.fit_weighted(&xb, &y, &ones),
                Err(MlError::Numeric(_))
            ));
        }
        let mut wb = ones.clone();
        wb[7] = f64::NAN;
        let mut t = DecisionTreeRegressor::new();
        assert!(matches!(
            t.fit_weighted(&x, &y, &wb),
            Err(MlError::Numeric(_))
        ));
        wb[7] = f64::INFINITY;
        assert!(matches!(
            t.fit_weighted(&x, &y, &wb),
            Err(MlError::Numeric(_))
        ));
    }

    /// Bit-exact image of a node array (`==` on `f64` would let `-0.0`
    /// pass for `0.0`).
    fn bits(nodes: &[Node]) -> Vec<(u64, u32, u32)> {
        nodes
            .iter()
            .map(|n| (n.value.to_bits(), n.children, n.feature))
            .collect()
    }

    impl Forest {
        /// Bit-exact image of the whole arena, then `(root, depth, !0)`
        /// per tree.
        pub(crate) fn bits(&self) -> Vec<(u64, u32, u32)> {
            let table = self
                .trees
                .iter()
                .map(|t| (t.root as u64, t.depth as u32, !0));
            bits(&self.nodes).into_iter().chain(table).collect()
        }
    }

    #[test]
    fn a_node_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    /// One randomized fit: data with every kind of tie the builder must
    /// order exactly as a per-node stable sort does, a depth cap,
    /// optional weights and an optional bootstrap.
    struct Case {
        x: Matrix,
        y: Vec<f64>,
        w: Option<Vec<f64>>,
        sample: Option<Vec<u32>>,
        max_depth: Option<usize>,
    }

    fn random_case(seed: u64, n: usize) -> Case {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let nf = rng.gen_range(1..=10usize);
        let eps = f64::EPSILON;
        let column = |rng: &mut StdRng| -> Vec<f64> {
            match rng.gen_range(0..6u32) {
                // continuous
                0 | 1 => (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect(),
                // quantized, with both zeros in one tie group
                2 => (0..n)
                    .map(|_| [-0.0, 0.0, 1.0, 2.5, -3.0][rng.gen_range(0..5usize)])
                    .collect(),
                // constant
                3 => vec![rng.gen_range(-5.0..5.0); n],
                // neighbouring floats: the midpoint rounds onto the
                // upper value, so the threshold sends it left too
                4 => (0..n)
                    .map(|_| 1.0 + eps * rng.gen_range(0..4u32) as f64)
                    .collect(),
                // two plateaus (a flat-lined series with one step)
                _ => {
                    let step = rng.gen_range(0..=n);
                    (0..n)
                        .map(|i| if i < step { 80.0 } else { 100.0 })
                        .collect()
                }
            }
        };
        let cols: Vec<Vec<f64>> = (0..nf).map(|_| column(&mut rng)).collect();
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|i| cols.iter().map(|c| c[i]).collect())
            .collect();
        let mut y = if rng.gen_range(0..4u32) == 0 {
            vec![7.25; n] // all-equal target
        } else {
            column(&mut rng)
        };
        // duplicated rows (sometimes with the target, sometimes without)
        for _ in 0..rng.gen_range(0..=n / 2) {
            let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
            rows[to] = rows[from].clone();
            if rng.gen_bool(0.5) {
                y[to] = y[from];
            }
        }
        let w = match rng.gen_range(0..4u32) {
            0 | 1 => None,
            // fractional
            2 => Some((0..n).map(|_| rng.gen_range(0.01..3.0)).collect()),
            // fractional with zeros
            _ => Some(
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            0.0
                        } else {
                            rng.gen_range(0.0..2.0)
                        }
                    })
                    .collect(),
            ),
        };
        let sample = rng
            .gen_bool(0.5)
            .then(|| (0..n).map(|_| rng.gen_range(0..n) as u32).collect());
        Case {
            x: Matrix::from_rows(&rows),
            y,
            w,
            sample,
            max_depth: rng.gen_bool(0.4).then(|| rng.gen_range(0..6usize)),
        }
    }

    /// `c` with exact score ties planted, drawn from its own stream so
    /// `random_case`'s stays as it was: a column copied over a later one
    /// (the first copy must win), and sometimes distinct ascending
    /// values in column 0 under a palindrome of small whole targets, so
    /// that, unweighted, cut `k` and cut `n - 2 - k` score the same bits
    /// (the first cut must win).
    fn with_ties(mut c: Case, seed: u64) -> Case {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7135);
        let (n, nf) = (c.x.rows(), c.x.cols());
        if nf > 1 {
            let from = rng.gen_range(0..nf - 1);
            let to = rng.gen_range(from + 1..nf);
            for r in 0..n {
                c.x[(r, to)] = c.x[(r, from)];
            }
        }
        if rng.gen_bool(0.5) {
            for r in 0..n {
                c.x[(r, 0)] = r as f64;
            }
            for r in 0..n.div_ceil(2) {
                let v = rng.gen_range(0..4u32) as f64;
                (c.y[r], c.y[n - 1 - r]) = (v, v);
            }
        }
        c
    }

    /// Grows `c` with the builder and with the oracle and asserts the
    /// two trees are the same bits.
    fn assert_builder_grows_the_reference_tree(c: &Case) {
        let pre = Presort::new(&c.x, &c.y).unwrap();
        let sample = c.sample.clone().unwrap_or_else(|| pre.all_rows());
        let mut got = Forest::default();
        TreeBuilder::new(&pre).fit(c.max_depth, &sample, &c.y, c.w.as_deref(), &mut got);

        // The oracle fits the gathered rows with explicit weights.
        let picked: Vec<usize> = sample.iter().map(|&r| r as usize).collect();
        let xs = c.x.select_rows(&picked);
        let ys: Vec<f64> = picked.iter().map(|&r| c.y[r]).collect();
        let ws: Vec<f64> = picked
            .iter()
            .map(|&r| c.w.as_ref().map_or(1.0, |w| w[r]))
            .collect();
        let want = reference::flatten(&reference::fit(c.max_depth, &xs, &ys, &ws));
        assert_eq!(bits(&got.nodes), bits(&want));

        // Without a bootstrap the public entry points are that fit.
        if c.sample.is_none() {
            let mut t = DecisionTreeRegressor {
                max_depth: c.max_depth,
                ..Default::default()
            };
            match &c.w {
                Some(w) => t.fit_weighted(&c.x, &c.y, w).unwrap(),
                None => t.fit(&c.x, &c.y).unwrap(),
            }
            assert_eq!(bits(&t.tree.nodes), bits(&want));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn presorted_builder_grows_the_reference_tree_bit_for_bit(
            seed in any::<u64>(),
            n in (0usize..4).prop_map(|i| [2usize, 3, 12, 110][i]),
        ) {
            assert_builder_grows_the_reference_tree(&random_case(seed, n));
            assert_builder_grows_the_reference_tree(&with_ties(random_case(seed, n), seed));
        }
    }

    /// Rows that tell a tree's leaves apart: the training rows, rows of
    /// specials (NaN, ±0, ±∞) whole and in one feature, and for every
    /// split in `nodes` a row exactly on its threshold and one ulp to
    /// either side of it.
    fn probe_rows(x: &Matrix, nodes: &[Node]) -> Vec<Vec<f64>> {
        let (n, nf) = (x.rows(), x.cols());
        let mut rows: Vec<Vec<f64>> = (0..n).map(|i| x.row(i).to_vec()).collect();
        for special in [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY] {
            rows.push(vec![special; nf]);
            let mut one = rows[rows.len() % n].clone();
            one[rows.len() % nf] = special;
            rows.push(one);
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.feature & SPLIT != 0 {
                for t in [node.value, node.value.next_up(), node.value.next_down()] {
                    let mut row = rows[i % n].clone();
                    row[(node.feature & !SPLIT) as usize] = t;
                    rows.push(row);
                }
            }
        }
        rows
    }

    /// Depth of the subtree at `nodes[i]`, read off the layout alone.
    fn depth(nodes: &[Node], i: usize) -> usize {
        match nodes[i].feature & SPLIT {
            0 => 0,
            _ => {
                let left = i + nodes[i].children as usize;
                1 + depth(nodes, left).max(depth(nodes, left + 1))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        /// The lazy walk reaches the eager tree's leaf for every row,
        /// whichever order the walks grow it in; and the worklist then
        /// finishes the walked tree into one that [`Forest::leaves`]
        /// walks to the same leaves.
        #[test]
        fn a_lazy_tree_walks_to_the_eager_trees_leaves(
            seed in any::<u64>(),
            n in (0usize..3).prop_map(|i| [2usize, 12, 110][i]),
        ) {
            let c = with_ties(random_case(seed, n), seed);
            let pre = Presort::new(&c.x, &c.y).unwrap();
            let sample = c.sample.clone().unwrap_or_else(|| pre.all_rows());
            let mut builder = TreeBuilder::new(&pre);
            let mut eager = Forest::default();
            builder.fit(c.max_depth, &sample, &c.y, None, &mut eager);
            let rows = probe_rows(&c.x, &eager.nodes);
            let want: Vec<u64> = rows.iter().map(|row| eager.leaf(0, row).to_bits()).collect();
            // Walked last row first: not the order the worklist grows.
            let mut lazy = builder.lazy(c.max_depth, &sample, &c.y);
            for (row, want) in rows.iter().zip(&want).rev() {
                prop_assert_eq!(builder.lazy_leaf(&mut lazy, row).to_bits(), *want);
            }
            builder.finish(&lazy.task, &mut lazy.orders, &mut lazy.nodes, 0);
            let depth = depth(&lazy.nodes, 0);
            prop_assert_eq!(depth, eager.trees[0].depth);
            prop_assert_eq!(lazy.nodes.len(), eager.nodes.len());
            let finished = Forest {
                nodes: lazy.nodes,
                trees: vec![TreeRef { root: 0, depth }],
                n_features: c.x.cols(),
            };
            for (row, want) in rows.iter().zip(&want) {
                prop_assert_eq!(finished.leaf(0, row).to_bits(), *want);
            }
        }
    }

    #[test]
    fn exact_ties_go_to_the_first_feature_and_the_first_cut() {
        // Two copies of one column under a mirror-symmetric target: cuts
        // 1 and 3 of either copy score exactly 1.0, above the parent's
        // 2/3. The first copy's first cut is the split.
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let y = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let mut stump = DecisionTreeRegressor::with_max_depth(1);
        stump.fit(&x, &y).unwrap();
        let root = stump.tree.nodes[0];
        assert_eq!((root.feature, root.value), (SPLIT, 1.5));
        // Three copies, grown out: the oracle's scan at every node.
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64; 3]).collect();
        let c = Case {
            x: Matrix::from_rows(&rows),
            y: y.to_vec(),
            w: None,
            sample: None,
            max_depth: None,
        };
        assert_builder_grows_the_reference_tree(&c);
    }

    #[test]
    fn weight_rounded_away_leaves_a_side_empty() {
        // The last two weights vanish in the running sum, so cuts 1 and
        // 2 have `rw == 0` while `rwy == 2`: they would score +∞. No cut
        // with no weight on a side is scanned, so the split is cut 0's.
        let x = Matrix::from_rows(&[[0.0], [1.0], [2.0], [3.0]].map(|r| r.to_vec()));
        let c = Case {
            x,
            y: vec![0.0, 0.0, 1e17, 1e17],
            w: Some(vec![1.0, 1.0, 1e-17, 1e-17]),
            sample: None,
            max_depth: None,
        };
        assert_builder_grows_the_reference_tree(&c);
        let mut t = DecisionTreeRegressor::with_max_depth(1);
        t.fit_weighted(&c.x, &c.y, c.w.as_ref().unwrap()).unwrap();
        assert_eq!(t.tree.nodes[0].value, 0.5);
    }

    #[test]
    fn targets_too_large_to_score_are_an_error() {
        // Past `check_split_sums`' bound a sum of targets can overflow,
        // and a NaN score would let a sequential scan and the select
        // disagree; such targets never reach the builder.
        let (x, y) = step_data();
        let n = y.len() as f64;
        let bound = f64::MAX.sqrt() / n;
        for scale in [2.0 * bound, 1e300, f64::MAX] {
            let huge: Vec<f64> = y.iter().map(|v| v / 5.0 * scale).collect();
            assert!(matches!(
                DecisionTreeRegressor::new().fit(&x, &huge),
                Err(MlError::Numeric(_))
            ));
            assert!(matches!(Presort::new(&x, &huge), Err(MlError::Numeric(_))));
        }
        // Weights scale the sums too.
        let heavy = vec![2.0 * bound; y.len()];
        assert!(matches!(
            DecisionTreeRegressor::new().fit_weighted(&x, &y, &heavy),
            Err(MlError::Numeric(_))
        ));
        // Just inside the bound the scores are huge and the tree is still
        // the oracle's.
        let big: Vec<f64> = y.iter().map(|v| v / 5.0 * bound / 2.0).collect();
        let c = Case {
            x,
            y: big,
            w: None,
            sample: None,
            max_depth: None,
        };
        assert_builder_grows_the_reference_tree(&c);
    }

    /// `trees` bootstrap trees over one random dataset, grown by the
    /// builder into one arena and by the oracle into enum trees.
    fn forest_and_oracle(seed: u64, trees: usize) -> (Case, Forest, Vec<Vec<reference::Node>>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        // `random_case` for the ties in X; a target that always splits.
        let mut c = random_case(rng.gen(), 110);
        c.y = (0..110).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let pre = Presort::new(&c.x, &c.y).unwrap();
        let mut builder = TreeBuilder::new(&pre);
        let (mut forest, mut oracle) = (Forest::default(), Vec::new());
        for k in 0..trees {
            let sample: Vec<u32> = (0..110).map(|_| rng.gen_range(0..110u32)).collect();
            // root-only trees, boosting-stage stumps, full depth
            let max_depth = [None, Some(3), Some(0), None][(seed as usize + k) % 4];
            builder.fit(max_depth, &sample, &c.y, None, &mut forest);
            let picked: Vec<usize> = sample.iter().map(|&r| r as usize).collect();
            let ys: Vec<f64> = picked.iter().map(|&r| c.y[r]).collect();
            oracle.push(reference::fit(
                max_depth,
                &c.x.select_rows(&picked),
                &ys,
                &[1.0; 110],
            ));
        }
        (c, forest, oracle)
    }

    #[test]
    fn lock_step_walk_is_the_scalar_walk_is_the_enum_walk() {
        // 1, 7, 8, 9 and 100 trees: one short group, one full group, a
        // full group with a one-tree tail, many groups with a tail of 4.
        for (seed, trees) in [(1, 1), (2, 7), (3, 8), (4, 9), (5, 100), (6, 100)] {
            let (c, forest, oracle) = forest_and_oracle(seed, trees);
            assert_eq!(forest.len(), trees);
            let deepest = forest.trees.iter().map(|t| t.depth).max().unwrap();
            assert!(trees < 9 || deepest > 3, "{trees} trees, deepest {deepest}");
            for row in &probe_rows(&c.x, &forest.nodes) {
                let mut lock_step = Vec::new();
                forest.leaves(0..trees, row, |leaf| lock_step.push(leaf.to_bits()));
                let scalar: Vec<u64> = (0..trees).map(|k| forest.leaf(k, row).to_bits()).collect();
                let enum_walk: Vec<u64> = oracle
                    .iter()
                    .map(|t| reference::predict_row(t, row).to_bits())
                    .collect();
                assert_eq!(lock_step, enum_walk, "{trees} trees, row {row:?}");
                assert_eq!(scalar, enum_walk, "{trees} trees, row {row:?}");
            }
        }
    }

    #[test]
    fn a_shallow_tree_waits_on_its_leaf_while_its_group_descends() {
        let (_, forest, _) = forest_and_oracle(7, 9);
        let depths: Vec<usize> = forest.trees.iter().map(|t| t.depth).collect();
        assert!(depths.contains(&0) && depths.contains(&3), "{depths:?}");
        assert!(depths.iter().any(|d| *d > 3), "{depths:?}");
        for t in &forest.trees {
            assert_eq!(t.depth, depth(&forest.nodes, t.root));
        }
        // A leaf steps to itself whatever the row holds.
        let leaf = forest.nodes[forest.trees[depths.iter().position(|d| *d == 0).unwrap()].root];
        assert_eq!((leaf.children, leaf.feature), (0, 0));
        for x in [f64::NAN, -1e300, leaf.value, 1e300] {
            assert_eq!(leaf.step(&[x]), 0);
        }
    }

    #[test]
    fn one_builder_fits_many_trees_without_carrying_state() {
        // A worker reuses its builder across trees and sample sizes.
        let a = random_case(1, 110);
        let pre = Presort::new(&a.x, &a.y).unwrap();
        let mut reused = TreeBuilder::new(&pre);
        for seed in 0..20u64 {
            let c = random_case(seed, 110);
            let sample: Vec<u32> = c
                .sample
                .unwrap_or_else(|| (0..(seed as u32 % 110 + 1)).collect());
            let (mut fresh, mut again) = (Forest::default(), Forest::default());
            TreeBuilder::new(&pre).fit(c.max_depth, &sample, &a.y, None, &mut fresh);
            reused.fit(c.max_depth, &sample, &a.y, None, &mut again);
            assert_eq!(again.bits(), fresh.bits(), "seed {seed}");
        }
    }
}
