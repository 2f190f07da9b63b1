//! The unified parallel sweep executor.
//!
//! Figure reproductions are embarrassingly parallel over
//! `(system × load × policy × seed)` tuples. Instead of every experiment
//! hand-rolling its own job list and scatter logic, [`SweepGrid`] enumerates
//! the full cross-product in a fixed row-major order and fans the cells out
//! over [`scd_sim::fan_out`] — the same work-stealing fan-out that backs
//! `run_comparison_parallel` and `run_replications` — so every layer shares
//! one parallelism primitive.
//!
//! Determinism: the grid only distributes *indices*; every cell derives its
//! RNG streams from the experiment seed and its own coordinates. Results
//! come back in row-major input order regardless of the thread count, so a
//! parallel sweep is bit-identical to a sequential one (asserted by this
//! module's tests and the experiment-level determinism tests).

/// One cell of a sweep grid, identified by its coordinate indices.
///
/// The indices point into the experiment's own dimension vectors (systems,
/// offered loads, policies, replication seeds); a dimension an experiment
/// does not sweep simply has size 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// Index into the systems dimension (cluster sizes for runtime sweeps).
    pub system: usize,
    /// Index into the offered-loads dimension.
    pub load: usize,
    /// Index into the policies dimension (estimator variants for ablations).
    pub policy: usize,
    /// Index into the seeds/replications dimension.
    pub seed: usize,
}

/// A `(system × load × policy × seed)` sweep grid executed through the
/// simulator's [`scd_sim::fan_out`].
///
/// # Example
/// ```
/// use scd_experiments::sweep::SweepGrid;
/// let grid = SweepGrid::new(2, 3, 4); // 2 systems × 3 loads × 4 policies
/// assert_eq!(grid.len(), 24);
/// let cells = grid.run(8, |pt| (pt.system, pt.load, pt.policy));
/// assert_eq!(cells[0], (0, 0, 0));
/// assert_eq!(cells[23], (1, 2, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepGrid {
    systems: usize,
    loads: usize,
    policies: usize,
    seeds: usize,
}

impl SweepGrid {
    /// Upper bound on a grid's cell count. Every cell is one simulation run
    /// and one result slot, so a larger grid is a typo rather than an
    /// experiment, and its result vector alone could exhaust memory.
    pub const MAX_CELLS: usize = 1 << 20;

    /// The most policies (or estimator variants) one sweep compares: the
    /// figure binaries compare at most seven. Command-line front ends
    /// bound a sweep they have not built yet with it.
    pub const MAX_POLICIES: usize = 8;

    /// The cell count of a `systems × loads × policies × seeds` grid, or
    /// `None` when the product overflows or exceeds
    /// [`MAX_CELLS`](SweepGrid::MAX_CELLS).
    pub fn checked_len(
        systems: usize,
        loads: usize,
        policies: usize,
        seeds: usize,
    ) -> Option<usize> {
        systems
            .checked_mul(loads)?
            .checked_mul(policies)?
            .checked_mul(seeds)
            .filter(|&cells| cells <= Self::MAX_CELLS)
    }

    /// A grid over systems × loads × policies with a single seed per cell.
    pub fn new(systems: usize, loads: usize, policies: usize) -> Self {
        SweepGrid {
            systems,
            loads,
            policies,
            seeds: 1,
        }
    }

    /// Adds a replication (seed) dimension of the given size.
    pub fn with_seeds(mut self, seeds: usize) -> Self {
        self.seeds = seeds;
        self
    }

    /// Number of cells in the grid.
    ///
    /// # Panics
    /// Panics if the grid exceeds [`MAX_CELLS`](SweepGrid::MAX_CELLS);
    /// `CliOptions::parse` refuses sweeps that could.
    pub fn len(&self) -> usize {
        Self::checked_len(self.systems, self.loads, self.policies, self.seeds)
            .unwrap_or_else(|| panic!("sweep grid {self:?} exceeds {} cells", Self::MAX_CELLS))
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of replication seeds per cell.
    pub fn seeds(&self) -> usize {
        self.seeds
    }

    /// The coordinates of the `index`-th cell in row-major order
    /// (system-major, then load, then policy, then seed).
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn point(&self, index: usize) -> GridPoint {
        assert!(
            index < self.len(),
            "cell {index} out of range {}",
            self.len()
        );
        let seed = index % self.seeds;
        let rest = index / self.seeds;
        let policy = rest % self.policies;
        let rest = rest / self.policies;
        let load = rest % self.loads;
        let system = rest / self.loads;
        GridPoint {
            system,
            load,
            policy,
            seed,
        }
    }

    /// Runs `worker` on every cell with up to `threads` OS threads and
    /// returns the outputs in row-major cell order (independent of the
    /// thread count). A `threads` value of 0 or 1 runs on the calling
    /// thread.
    pub fn run<R, F>(&self, threads: usize, worker: F) -> Vec<R>
    where
        R: Send,
        F: Fn(GridPoint) -> R + Send + Sync,
    {
        scd_sim::fan_out(self.len(), threads, |index| worker(self.point(index)))
    }
}

/// Runs `worker` on every item of `inputs`, using up to `threads` OS threads,
/// and returns the outputs in input order.
///
/// A `threads` value of 0 or 1 runs everything on the calling thread, which
/// is also the fallback for a single input. (This is the degenerate
/// one-dimensional form of [`SweepGrid::run`]; both ride
/// [`scd_sim::fan_out`].)
pub fn parallel_map<T, R, F>(inputs: Vec<T>, threads: usize, worker: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    scd_sim::fan_out(inputs.len(), threads, |index| worker(&inputs[index]))
}

/// The number of worker threads to use given an optional user override.
pub fn effective_threads(requested: Option<usize>) -> usize {
    requested.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..97).collect();
        let outputs = parallel_map(inputs.clone(), 8, |&x| x * x);
        let expected: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn single_threaded_path_matches() {
        let inputs: Vec<i32> = (0..10).collect();
        let a = parallel_map(inputs.clone(), 1, |&x| x + 1);
        let b = parallel_map(inputs, 4, |&x| x + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_is_fine() {
        let outputs: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |&x| x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let outputs = parallel_map(vec![1, 2], 64, |&x| x * 10);
        assert_eq!(outputs, vec![10, 20]);
    }

    #[test]
    fn effective_threads_defaults_to_available_parallelism() {
        assert_eq!(effective_threads(Some(3)), 3);
        assert!(effective_threads(None) >= 1);
    }

    #[test]
    fn grid_enumerates_the_full_cross_product_row_major() {
        let grid = SweepGrid::new(2, 3, 2).with_seeds(2);
        assert_eq!(grid.len(), 24);
        assert!(!grid.is_empty());
        assert_eq!(grid.seeds(), 2);
        let mut expected = Vec::new();
        for system in 0..2 {
            for load in 0..3 {
                for policy in 0..2 {
                    for seed in 0..2 {
                        expected.push(GridPoint {
                            system,
                            load,
                            policy,
                            seed,
                        });
                    }
                }
            }
        }
        let points: Vec<GridPoint> = (0..grid.len()).map(|i| grid.point(i)).collect();
        assert_eq!(points, expected);
    }

    #[test]
    fn grid_run_is_thread_count_invariant() {
        let grid = SweepGrid::new(3, 4, 5).with_seeds(2);
        let sequential = grid.run(1, |pt| (pt.system, pt.load, pt.policy, pt.seed));
        for threads in [2usize, 8, 64] {
            assert_eq!(
                sequential,
                grid.run(threads, |pt| (pt.system, pt.load, pt.policy, pt.seed))
            );
        }
    }

    #[test]
    fn empty_grid_runs_to_nothing() {
        let grid = SweepGrid::new(0, 3, 2);
        assert!(grid.is_empty());
        let out: Vec<()> = grid.run(4, |_| ());
        assert!(out.is_empty());
    }

    #[test]
    fn checked_len_refuses_overflow_and_the_cap() {
        assert_eq!(SweepGrid::checked_len(2, 3, 4, 5), Some(120));
        assert_eq!(
            SweepGrid::checked_len(1, 1, 1, SweepGrid::MAX_CELLS),
            Some(SweepGrid::MAX_CELLS)
        );
        assert_eq!(SweepGrid::checked_len(1, 1, 2, SweepGrid::MAX_CELLS), None);
        assert_eq!(SweepGrid::checked_len(usize::MAX, 2, 1, 1), None);
        assert_eq!(SweepGrid::checked_len(3, 1, 3, 100_000_000_000), None);
    }

    #[test]
    fn every_figure_sweeps_at_most_max_policies() {
        use crate::FigureKind;
        for kind in [
            FigureKind::Fig3,
            FigureKind::Fig4,
            FigureKind::Fig5,
            FigureKind::Fig6,
            FigureKind::Fig7,
            FigureKind::Fig8,
            FigureKind::Ablation,
        ] {
            assert!(kind.policies().len() <= SweepGrid::MAX_POLICIES, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_panics() {
        SweepGrid::new(1, 1, 1).point(1);
    }
}
