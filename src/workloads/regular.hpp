#pragma once

#include "graph/task_graph.hpp"
#include "workloads/costs.hpp"

/// \file regular.hpp
/// Regular application task graphs (§3 of the paper): Gaussian
/// elimination, LU decomposition, Laplace equation solver and mean value
/// analysis — matrix-style applications whose task count is O(N^2) in the
/// problem dimension N — plus FFT and fork-join extras used by examples
/// and tests.
///
/// Contracts (relied on by the sweep runtime and the workload registry):
///  * determinism — every generator is a pure function of (structure
///    parameters, CostParams): repeated calls produce bit-identical
///    graphs at any thread count;
///  * thread-safety — no shared mutable state; concurrent calls are
///    safe;
///  * structure — results are weakly-connected DAGs; all generators
///    except lu_decomposition and cholesky (whose factorisation steps
///    interleave) additionally emit task ids in topological order.
///
/// *_task_count(...) predicts the exact task count and
/// *_dim_for(target) picks the dimension whose count is closest to a
/// target size (the paper sweeps sizes ~50..500 in steps of 50).

namespace bsa::workloads {

/// Gaussian elimination, kji form (Cosnard et al.): for each elimination
/// step k a pivot task T(k,k) feeds update tasks T(k,j), j>k, which feed
/// step k+1. dim >= 2.
[[nodiscard]] graph::TaskGraph gaussian_elimination(int dim,
                                                    const CostParams& costs = {});
[[nodiscard]] int gaussian_elimination_task_count(int dim);
[[nodiscard]] int gaussian_elimination_dim_for(int target_tasks);

/// Right-looking tiled LU decomposition on a tiles x tiles matrix:
/// GETRF(k) -> TRSM(k,*) -> GEMM(k,*,*) -> step k+1. tiles >= 2.
[[nodiscard]] graph::TaskGraph lu_decomposition(int tiles,
                                                const CostParams& costs = {});
[[nodiscard]] int lu_decomposition_task_count(int tiles);
[[nodiscard]] int lu_decomposition_dim_for(int target_tasks);

/// Laplace equation solver: dim x dim wavefront lattice, T(i,j) depends
/// on T(i-1,j) and T(i,j-1). dim >= 2.
[[nodiscard]] graph::TaskGraph laplace(int dim, const CostParams& costs = {});
[[nodiscard]] int laplace_task_count(int dim);
[[nodiscard]] int laplace_dim_for(int target_tasks);

/// Mean value analysis: `levels` population levels over `stations` queueing
/// stations; station tasks of level k feed an aggregation task which feeds
/// every station task of level k+1. levels >= 1, stations >= 1.
[[nodiscard]] graph::TaskGraph mean_value_analysis(int levels, int stations,
                                                   const CostParams& costs = {});
[[nodiscard]] int mva_task_count(int levels, int stations);
[[nodiscard]] int mva_levels_for(int target_tasks, int stations);

/// FFT butterfly over `points` inputs (power of two): log2(points)+1 rows
/// of `points` tasks.
[[nodiscard]] graph::TaskGraph fft(int points, const CostParams& costs = {});
[[nodiscard]] int fft_task_count(int points);
/// Power-of-two point count whose task count is closest to `target_tasks`.
[[nodiscard]] int fft_points_for(int target_tasks);

/// `stages` fork-join stages of `width` parallel tasks between join tasks.
[[nodiscard]] graph::TaskGraph fork_join(int stages, int width,
                                         const CostParams& costs = {});
[[nodiscard]] int fork_join_task_count(int stages, int width);

/// Right-looking tiled Cholesky factorisation on a tiles x tiles lower
/// triangle: POTRF(k) -> TRSM(k,i) -> SYRK/GEMM updates -> step k+1.
[[nodiscard]] graph::TaskGraph cholesky(int tiles, const CostParams& costs = {});
[[nodiscard]] int cholesky_task_count(int tiles);
[[nodiscard]] int cholesky_tiles_for(int target_tasks);

/// Two-dimensional Laplace stencil: `iters` Jacobi sweeps over a
/// rows x cols grid; T(t,i,j) depends on T(t-1,i,j) and its in-bounds
/// 4-neighbourhood (the 5-point update). rows, cols, iters >= 1, and
/// iters >= 2 when rows*cols > 1 (all edges run between sweeps, so a
/// single sweep over several cells would be disconnected).
[[nodiscard]] graph::TaskGraph stencil_2d(int rows, int cols, int iters,
                                          const CostParams& costs = {});
[[nodiscard]] int stencil_2d_task_count(int rows, int cols, int iters);

/// Linear (systolic) pipeline: `stages` stages of `width` parallel
/// lanes; P(s,l) feeds P(s+1,l) and the diagonal P(s+1,l+1), so data
/// flows down every lane with nearest-neighbour exchange. stages >= 2
/// when width > 1 (stages >= 1 for a single chain) keeps the graph
/// weakly connected, as the paper assumes.
[[nodiscard]] graph::TaskGraph pipeline(int stages, int width,
                                        const CostParams& costs = {});
[[nodiscard]] int pipeline_task_count(int stages, int width);

}  // namespace bsa::workloads
