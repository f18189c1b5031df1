// Amortized bottleneck-matching engine.
//
// Exact max-min (bottleneck) matchings are asked for repeatedly over a
// slowly-mutating demand matrix: the adaptive simulator controller
// (AdaptiveRecoController) re-plans against a residual that changed along
// one matching, and the exact-reference peels in the tests and
// micro-benchmarks subtract each bottleneck matching and ask again.  The
// seed implementation restarted a full Hopcroft-Karp from an empty
// matching for every threshold probe of every call; this engine amortizes
// that work at three layers:
//
//  1. *Matching reuse across the threshold ladder.*  Probing a lower
//     threshold only adds edges, so the engine keeps one persistent
//     working matching: before each probe it unmatches only the pairs
//     whose entry sits below the probe threshold, then augments from the
//     free rows.  Feasibility is exactly monotone in the threshold, so
//     the ladder is never materialized in sorted order: the engine
//     quickselect-partitions an unsorted candidate pool around probed
//     pivots (O(nnz) total partition work, vs the seed's O(nnz log nnz)
//     sort per call), seeded by the previous solve's bottleneck as a
//     first-pivot hint — on a slowly-mutating matrix the hint probe plus
//     one successor probe settle the search in O(1) probes.  A failed
//     probe additionally yields a Hall-violation certificate (a deficient
//     row set S with |N(S)| < |S|) that upper-bounds every feasible
//     threshold and prunes the candidate pool.
//  2. *Flat-CSR + scratch-arena Hopcroft-Karp.*  Adjacency is one CSR
//     (offsets / columns / values) built in a single O(nnz) pass per
//     solve; BFS runs on an index ring buffer and DFS on an explicit
//     frame stack.  Every buffer lives in a caller-owned MatchingScratch,
//     so steady-state solves allocate nothing.
//  3. *Warm-started peels.*  The working matching persists across solves:
//     a peel round that subtracted one permutation re-enters the next
//     round's ladder with at most the shrunk entries unmatched, repairing
//     only those vertices.  Warm seeds are re-validated against the
//     current matrix per probe, so warm starts are always safe, merely
//     faster when the caller mutated little.
//
// Determinism contract: results are bit-identical to the reference
// algorithm (dense_reference::bottleneck_perfect_matching_reference).
// Probes only answer feasibility — the maximum-matching *size* at a
// threshold is algorithm-independent — so warm starts cannot change which
// ladder value wins; the returned matching is then produced by one
// cold-start Hopcroft-Karp at the winning threshold, whose BFS/DFS visit
// order matches the reference exactly (rows ascending, columns ascending,
// layered DFS with dead-end pruning).  Pinned by
// tests/property/test_matching_engine_equivalence.cpp.
//
// Value-ladder semantics (the epsilon-dedup fix): candidate values are
// compared *exactly* — the selected bottleneck is the largest value v in
// the support with a feasible probe, where the tolerance lives only in
// the feasibility comparison (an edge is present at threshold t iff its
// entry is >= t - kTimeEps).  The seed's `std::unique` over `approx_eq`
// merged transitive near-equal chains a~b~c even when a and c differ by
// more than the tolerance, which could shift the selected bottleneck
// downward; exact value comparison makes the selection independent of
// chain shape (regression-pinned in
// tests/matching/test_matching_engine.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/matrix.hpp"
#include "core/support_index.hpp"

namespace reco {

/// BFS layer-expansion strategy for Hopcroft-Karp phases.
///
/// kCsr walks the flat-CSR edge list (O(E) per phase) — unbeatable when
/// the support is sparse.  kBitset expands each frontier by OR-ing
/// per-row adjacency bitmasks (word-parallel: 64 columns per operation,
/// O(frontier * N/64) per layer), which wins once the matrix is dense
/// enough that per-edge pointer chasing dominates.  kAuto picks per call
/// from the dimension and the built CSR's edge density; both paths
/// produce bit-identical matchings (BFS layer depths are canonical — they
/// do not depend on intra-layer visit order — and the DFS phase always
/// walks the CSR ascending), pinned by the scale property sweep.
enum class HkMode { kAuto, kCsr, kBitset };

/// kAuto thresholds: bitset expansion needs enough columns for the
/// word-parallelism to pay for building the masks (N/64 words per row)
/// and enough density that the CSR walk is the slower of the two.  Kept
/// at >= 192 ports so every N <= 128 microbenchmark row stays on the
/// proven CSR path.
inline constexpr int kBitsetMinPorts = 192;
inline constexpr double kBitsetMinDensity = 1.0 / 16.0;

/// Caller-owned scratch arena for the matching engine.  All buffers grow
/// to high-water capacity and are then reused; `stats.alloc_events`
/// counts capacity growths and `stats.scratch_reuses` counts solves that
/// completed without a single heap allocation (the steady state of a BvN
/// peel).  A scratch is cheap to construct but expensive to keep cold —
/// hot loops (peel rounds, controller decisions) hold one across calls.
///
/// Not thread-safe: one scratch per thread of execution.  The engine
/// never reads a scratch field it has not written in the same call except
/// the persistent warm matching (`match_left`/`match_right`), which is
/// re-validated entry by entry against the current matrix.
struct MatchingScratch {
  // ---- flat-CSR adjacency (rebuilt per solve, capacity reused) --------
  std::vector<int> csr_off;     ///< n_left + 1 offsets into csr_col/csr_val
  std::vector<int> csr_col;     ///< column per edge, ascending within a row
  std::vector<double> csr_val;  ///< entry value per edge (empty: unweighted)
  int n_left = 0;
  int n_right = 0;

  // ---- Hopcroft-Karp state -------------------------------------------
  std::vector<int> match_left;   ///< persistent working matching (warm seed)
  std::vector<int> match_right;
  std::vector<int> final_left;   ///< canonical cold-start result of a solve
  std::vector<int> final_right;
  std::vector<int> dist;         ///< BFS layer per left vertex
  std::vector<int> queue;        ///< BFS ring buffer (size n_left)
  std::vector<int> stack_u;      ///< iterative-DFS frame: vertex
  std::vector<int> stack_e;      ///< iterative-DFS frame: edge cursor

  // ---- bitset BFS layer expansion (IncrementalMatcher's DFS reuses
  // adj_bits for its edge set and visited_bits per augmentation) -------
  HkMode hk_mode = HkMode::kAuto;       ///< force kCsr/kBitset (tests, benches)
  std::vector<std::uint64_t> adj_bits;  ///< n_left rows x ceil(n_right/64) words
  std::vector<std::uint64_t> visited_bits;   ///< columns reached this BFS
  std::vector<std::uint64_t> layer_bits;     ///< OR of frontier rows' adjacency
  std::vector<std::uint64_t> free_col_bits;  ///< columns with match_right == -1

  // ---- bottleneck candidate pool + Hall-certificate prune ------------
  std::vector<double> values;    ///< unsorted candidate pool, partitioned in place
  std::vector<int> row_mark;     ///< stamp marks: rows reachable from free rows
  std::vector<int> col_mark;     ///< stamp marks: N(S)
  std::vector<int> gate_stamp;   ///< stamp: col_gate[j] valid this prune
  std::vector<double> col_gate;  ///< best entering value per unreached column
  std::vector<double> gate_heap; ///< entering values for d-th-largest selection
  int mark_stamp = 0;

  // ---- results of the last successful bottleneck_solve ---------------
  double bottleneck = 0.0;       ///< selected max-min value
  int matching_size = 0;         ///< size of final matching (== n on success)
  bool has_hint = false;         ///< previous solve succeeded at this dimension
  double hint = 0.0;             ///< its bottleneck: first-pivot guess next solve

  /// Cumulative engine accounting (plain counters; mirrored into the obs
  /// registry once per solve when telemetry is on).
  struct Stats {
    std::uint64_t solves = 0;           ///< bottleneck_solve calls
    std::uint64_t probes = 0;           ///< feasibility probes run
    std::uint64_t probes_pruned = 0;    ///< ladder values skipped by Hall prune
    std::uint64_t hall_prunes = 0;      ///< failed probes whose certificate cut the ladder
    std::uint64_t phases = 0;           ///< Hopcroft-Karp BFS phases
    std::uint64_t bitset_phases = 0;    ///< phases whose BFS ran word-parallel
    std::uint64_t bitset_builds = 0;    ///< adjacency-bitmask builds (per hk call)
    std::uint64_t augmentations = 0;    ///< successful augmenting paths
    std::uint64_t warm_start_hits = 0;  ///< solves seeded with >0 surviving warm edges
    std::uint64_t warm_edges_kept = 0;  ///< warm edges surviving the first probe filter
    std::uint64_t scratch_reuses = 0;   ///< solves with zero heap allocations
    std::uint64_t alloc_events = 0;     ///< buffer capacity growths
  } stats;
};

/// Exact max-min perfect matching over the nonzero support of `m`.
/// On success: returns true, sets `s.bottleneck` and the canonical
/// matching in `s.final_left` / `s.final_right`, and leaves the matching
/// as the warm seed for the next solve.  Returns false when no perfect
/// matching exists on the support (then `s.final_*` are unspecified).
/// Allocation-free in steady state when `s` is reused across calls.
bool bottleneck_solve(const Matrix& m, MatchingScratch& s);

/// Sparse-path twin: ladder collection and CSR build walk the support
/// index (O(nnz) instead of O(N^2)).  Same results, same contract.
bool bottleneck_solve(const SupportIndex& idx, MatchingScratch& s);

/// Maximum matching on the scratch's CSR at `threshold`, continuing from
/// the current contents of `ml`/`mr` (pass arrays cleared to -1 for a
/// cold start).  `check_value` gates the per-edge `csr_val >= threshold -
/// kTimeEps` probe; pass false when the CSR was already built at the
/// target threshold.  Returns the total matching size.  Exposed for the
/// threshold-matching wrappers in hopcroft_karp.cpp; bottleneck callers
/// use bottleneck_solve.
int hk_augment_csr(MatchingScratch& s, std::vector<int>& ml, std::vector<int>& mr,
                   double threshold, bool check_value);

/// Build the scratch CSR from a dense matrix / support index, keeping
/// edges with value >= keep_threshold - kTimeEps.  Columns come out
/// ascending per row (the dense probe order restricted to present edges).
/// `with_values` controls whether csr_val is filled (bottleneck probes
/// need it; plain threshold matching does not).
void build_csr(const Matrix& m, double keep_threshold, bool with_values, MatchingScratch& s);
void build_csr(const SupportIndex& idx, double keep_threshold, bool with_values,
               MatchingScratch& s);

}  // namespace reco
