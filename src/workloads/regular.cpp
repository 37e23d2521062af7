#include "workloads/regular.hpp"

#include <cmath>
#include <cstdlib>
#include <map>
#include <tuple>

#include "common/check.hpp"

namespace bsa::workloads {
namespace {

/// Pick the smallest dimension >= lo whose count(dim) is closest to
/// target (counts are strictly increasing in dim).
template <typename CountFn>
int dim_for_target(int target, int lo, CountFn count) {
  BSA_REQUIRE(target >= count(lo), "target size " << target
                                                  << " below minimum "
                                                  << count(lo));
  int dim = lo;
  while (count(dim + 1) <= target) ++dim;
  // dim gives count <= target, dim+1 overshoots; pick the closer one.
  if (std::abs(count(dim + 1) - target) < std::abs(target - count(dim))) {
    ++dim;
  }
  return dim;
}

}  // namespace

// ---------------------------------------------------------------------------
// Gaussian elimination (kji form)
// ---------------------------------------------------------------------------

int gaussian_elimination_task_count(int dim) {
  BSA_REQUIRE(dim >= 2, "gaussian elimination needs dim >= 2");
  return dim * (dim + 1) / 2 - 1;
}

int gaussian_elimination_dim_for(int target_tasks) {
  return dim_for_target(target_tasks, 2, gaussian_elimination_task_count);
}

graph::TaskGraph gaussian_elimination(int dim, const CostParams& costs) {
  BSA_REQUIRE(dim >= 2, "gaussian elimination needs dim >= 2");
  Rng rng(derive_seed(costs.seed, 0x6765ULL));  // "ge"
  graph::TaskGraphBuilder b;
  // id(k, j): k = 1..dim-1 elimination step, j = k..dim column.
  std::map<std::pair<int, int>, TaskId> id;
  for (int k = 1; k <= dim - 1; ++k) {
    for (int j = k; j <= dim; ++j) {
      const std::string name =
          "T" + std::to_string(k) + "_" + std::to_string(j);
      id[{k, j}] = b.add_task(draw_exec_cost(rng, costs), name);
    }
  }
  for (int k = 1; k <= dim - 1; ++k) {
    for (int j = k + 1; j <= dim; ++j) {
      // Pivot task feeds every update of its step.
      (void)b.add_edge(id[{k, k}], id[{k, j}], draw_comm_cost(rng, costs));
      // Updates feed the next step's task in the same column.
      if (k + 1 <= dim - 1 && j >= k + 1) {
        (void)b.add_edge(id[{k, j}], id[{k + 1, j}],
                         draw_comm_cost(rng, costs));
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Tiled LU decomposition (right looking)
// ---------------------------------------------------------------------------

int lu_decomposition_task_count(int tiles) {
  BSA_REQUIRE(tiles >= 2, "LU needs tiles >= 2");
  // GETRF per step, 2(T-1-k) TRSM, (T-1-k)^2 GEMM at step k.
  int count = 0;
  for (int k = 0; k < tiles; ++k) {
    const int r = tiles - 1 - k;
    count += 1 + 2 * r + r * r;
  }
  return count;
}

int lu_decomposition_dim_for(int target_tasks) {
  return dim_for_target(target_tasks, 2, lu_decomposition_task_count);
}

graph::TaskGraph lu_decomposition(int tiles, const CostParams& costs) {
  BSA_REQUIRE(tiles >= 2, "LU needs tiles >= 2");
  Rng rng(derive_seed(costs.seed, 0x6C75ULL));  // "lu"
  graph::TaskGraphBuilder b;
  std::map<std::tuple<int, int, int>, TaskId> getrf, trsm_row, trsm_col, gemm;
  for (int k = 0; k < tiles; ++k) {
    getrf[{k, 0, 0}] = b.add_task(draw_exec_cost(rng, costs),
                                  "GETRF" + std::to_string(k));
    for (int i = k + 1; i < tiles; ++i) {
      trsm_col[{k, i, 0}] =
          b.add_task(draw_exec_cost(rng, costs),
                     "TRSMc" + std::to_string(k) + "_" + std::to_string(i));
      trsm_row[{k, 0, i}] =
          b.add_task(draw_exec_cost(rng, costs),
                     "TRSMr" + std::to_string(k) + "_" + std::to_string(i));
      for (int j = k + 1; j < tiles; ++j) {
        gemm[{k, i, j}] = b.add_task(
            draw_exec_cost(rng, costs), "GEMM" + std::to_string(k) + "_" +
                                            std::to_string(i) + "_" +
                                            std::to_string(j));
      }
    }
    // Deduplicate: the loop above creates gemm(k,i,j) once per i — guard
    // by construction: create gemm only in the i loop with all j, which
    // is exactly once per (k,i,j). (No action needed.)
  }
  auto comm = [&] { return draw_comm_cost(rng, costs); };
  for (int k = 0; k < tiles; ++k) {
    for (int i = k + 1; i < tiles; ++i) {
      (void)b.add_edge(getrf[{k, 0, 0}], trsm_col[{k, i, 0}], comm());
      (void)b.add_edge(getrf[{k, 0, 0}], trsm_row[{k, 0, i}], comm());
    }
    for (int i = k + 1; i < tiles; ++i) {
      for (int j = k + 1; j < tiles; ++j) {
        (void)b.add_edge(trsm_col[{k, i, 0}], gemm[{k, i, j}], comm());
        (void)b.add_edge(trsm_row[{k, 0, j}], gemm[{k, i, j}], comm());
        // The updated tile flows into step k+1.
        if (i == k + 1 && j == k + 1) {
          (void)b.add_edge(gemm[{k, i, j}], getrf[{k + 1, 0, 0}], comm());
        } else if (j == k + 1) {
          (void)b.add_edge(gemm[{k, i, j}], trsm_col[{k + 1, i, 0}], comm());
        } else if (i == k + 1) {
          (void)b.add_edge(gemm[{k, i, j}], trsm_row[{k + 1, 0, j}], comm());
        } else {
          (void)b.add_edge(gemm[{k, i, j}], gemm[{k + 1, i, j}], comm());
        }
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Laplace equation solver (wavefront lattice)
// ---------------------------------------------------------------------------

int laplace_task_count(int dim) {
  BSA_REQUIRE(dim >= 2, "laplace needs dim >= 2");
  return dim * dim;
}

int laplace_dim_for(int target_tasks) {
  return dim_for_target(target_tasks, 2, laplace_task_count);
}

graph::TaskGraph laplace(int dim, const CostParams& costs) {
  BSA_REQUIRE(dim >= 2, "laplace needs dim >= 2");
  Rng rng(derive_seed(costs.seed, 0x6C61ULL));  // "la"
  graph::TaskGraphBuilder b;
  auto id = [dim](int i, int j) { return static_cast<TaskId>(i * dim + j); };
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      (void)b.add_task(draw_exec_cost(rng, costs),
                       "T" + std::to_string(i) + "_" + std::to_string(j));
    }
  }
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      if (i + 1 < dim) {
        (void)b.add_edge(id(i, j), id(i + 1, j), draw_comm_cost(rng, costs));
      }
      if (j + 1 < dim) {
        (void)b.add_edge(id(i, j), id(i, j + 1), draw_comm_cost(rng, costs));
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Mean value analysis
// ---------------------------------------------------------------------------

int mva_task_count(int levels, int stations) {
  BSA_REQUIRE(levels >= 1 && stations >= 1, "MVA needs levels,stations >= 1");
  return levels * (stations + 1);
}

int mva_levels_for(int target_tasks, int stations) {
  return dim_for_target(target_tasks, 1, [stations](int levels) {
    return mva_task_count(levels, stations);
  });
}

graph::TaskGraph mean_value_analysis(int levels, int stations,
                                     const CostParams& costs) {
  BSA_REQUIRE(levels >= 1 && stations >= 1, "MVA needs levels,stations >= 1");
  Rng rng(derive_seed(costs.seed, 0x6D76ULL));  // "mv"
  graph::TaskGraphBuilder b;
  std::vector<TaskId> prev_agg;
  for (int k = 0; k < levels; ++k) {
    std::vector<TaskId> station_tasks;
    station_tasks.reserve(static_cast<std::size_t>(stations));
    for (int m = 0; m < stations; ++m) {
      station_tasks.push_back(
          b.add_task(draw_exec_cost(rng, costs),
                     "S" + std::to_string(k) + "_" + std::to_string(m)));
    }
    const TaskId agg = b.add_task(draw_exec_cost(rng, costs),
                                  "A" + std::to_string(k));
    for (const TaskId st : station_tasks) {
      (void)b.add_edge(st, agg, draw_comm_cost(rng, costs));
      if (!prev_agg.empty()) {
        (void)b.add_edge(prev_agg.front(), st, draw_comm_cost(rng, costs));
      }
    }
    prev_agg.assign(1, agg);
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// FFT butterfly
// ---------------------------------------------------------------------------

int fft_task_count(int points) {
  BSA_REQUIRE(points >= 2 && (points & (points - 1)) == 0,
              "fft needs a power-of-two point count >= 2");
  int stages = 0;
  for (int v = points; v > 1; v >>= 1) ++stages;
  return points * (stages + 1);
}

int fft_points_for(int target_tasks) {
  BSA_REQUIRE(target_tasks >= fft_task_count(2),
              "target size " << target_tasks << " below minimum "
                             << fft_task_count(2));
  // Counts are strictly increasing in the (power-of-two) point count;
  // compute in 64 bits — doubling overshoots int range quickly.
  auto count = [](std::int64_t p) {
    std::int64_t stages = 0;
    for (std::int64_t v = p; v > 1; v >>= 1) ++stages;
    return p * (stages + 1);
  };
  std::int64_t points = 2;
  while (count(points * 2) <= target_tasks) points *= 2;
  if (count(points * 2) - target_tasks < target_tasks - count(points)) {
    points *= 2;
  }
  return static_cast<int>(points);
}

graph::TaskGraph fft(int points, const CostParams& costs) {
  BSA_REQUIRE(points >= 2 && (points & (points - 1)) == 0,
              "fft needs a power-of-two point count >= 2");
  Rng rng(derive_seed(costs.seed, 0x66FFULL));
  int stages = 0;
  for (int v = points; v > 1; v >>= 1) ++stages;
  graph::TaskGraphBuilder b;
  auto id = [points](int s, int i) {
    return static_cast<TaskId>(s * points + i);
  };
  for (int s = 0; s <= stages; ++s) {
    for (int i = 0; i < points; ++i) {
      (void)b.add_task(draw_exec_cost(rng, costs),
                       "F" + std::to_string(s) + "_" + std::to_string(i));
    }
  }
  for (int s = 0; s < stages; ++s) {
    for (int i = 0; i < points; ++i) {
      (void)b.add_edge(id(s, i), id(s + 1, i), draw_comm_cost(rng, costs));
      (void)b.add_edge(id(s, i), id(s + 1, i ^ (1 << s)),
                       draw_comm_cost(rng, costs));
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Fork-join
// ---------------------------------------------------------------------------

int fork_join_task_count(int stages, int width) {
  BSA_REQUIRE(stages >= 1 && width >= 1, "fork_join needs stages,width >= 1");
  return stages * width + stages + 1;
}

graph::TaskGraph fork_join(int stages, int width, const CostParams& costs) {
  BSA_REQUIRE(stages >= 1 && width >= 1, "fork_join needs stages,width >= 1");
  Rng rng(derive_seed(costs.seed, 0x666AULL));  // "fj"
  graph::TaskGraphBuilder b;
  TaskId join = b.add_task(draw_exec_cost(rng, costs), "J0");
  for (int sidx = 1; sidx <= stages; ++sidx) {
    std::vector<TaskId> forks;
    forks.reserve(static_cast<std::size_t>(width));
    for (int w = 0; w < width; ++w) {
      const TaskId f =
          b.add_task(draw_exec_cost(rng, costs),
                     "F" + std::to_string(sidx) + "_" + std::to_string(w));
      (void)b.add_edge(join, f, draw_comm_cost(rng, costs));
      forks.push_back(f);
    }
    const TaskId next_join =
        b.add_task(draw_exec_cost(rng, costs), "J" + std::to_string(sidx));
    for (const TaskId f : forks) {
      (void)b.add_edge(f, next_join, draw_comm_cost(rng, costs));
    }
    join = next_join;
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Tiled Cholesky (right looking, lower triangle)
// ---------------------------------------------------------------------------

int cholesky_task_count(int tiles) {
  BSA_REQUIRE(tiles >= 2, "cholesky needs tiles >= 2");
  // Step k: POTRF + (T-1-k) TRSM + (T-1-k) SYRK + C(T-1-k, 2) GEMM.
  int count = 0;
  for (int k = 0; k < tiles; ++k) {
    const int r = tiles - 1 - k;
    count += 1 + r + r + r * (r - 1) / 2;
  }
  return count;
}

int cholesky_tiles_for(int target_tasks) {
  return dim_for_target(target_tasks, 2, cholesky_task_count);
}

graph::TaskGraph cholesky(int tiles, const CostParams& costs) {
  BSA_REQUIRE(tiles >= 2, "cholesky needs tiles >= 2");
  Rng rng(derive_seed(costs.seed, 0x6368ULL));  // "ch"
  graph::TaskGraphBuilder b;
  std::map<std::tuple<int, int, int>, TaskId> potrf, trsm, syrk, gemm;
  for (int k = 0; k < tiles; ++k) {
    potrf[{k, 0, 0}] = b.add_task(draw_exec_cost(rng, costs),
                                  "POTRF" + std::to_string(k));
    for (int i = k + 1; i < tiles; ++i) {
      trsm[{k, i, 0}] =
          b.add_task(draw_exec_cost(rng, costs),
                     "TRSM" + std::to_string(k) + "_" + std::to_string(i));
      syrk[{k, i, 0}] =
          b.add_task(draw_exec_cost(rng, costs),
                     "SYRK" + std::to_string(k) + "_" + std::to_string(i));
      for (int j = k + 1; j < i; ++j) {
        gemm[{k, i, j}] = b.add_task(
            draw_exec_cost(rng, costs), "CGEMM" + std::to_string(k) + "_" +
                                            std::to_string(i) + "_" +
                                            std::to_string(j));
      }
    }
  }
  auto comm = [&] { return draw_comm_cost(rng, costs); };
  for (int k = 0; k < tiles; ++k) {
    for (int i = k + 1; i < tiles; ++i) {
      (void)b.add_edge(potrf[{k, 0, 0}], trsm[{k, i, 0}], comm());
      // SYRK(k,i) updates the diagonal tile (i,i) with column tile (i,k).
      (void)b.add_edge(trsm[{k, i, 0}], syrk[{k, i, 0}], comm());
      // Diagonal update feeds the next step's factorisation of tile i.
      if (i == k + 1) {
        (void)b.add_edge(syrk[{k, i, 0}], potrf[{k + 1, 0, 0}], comm());
      } else {
        (void)b.add_edge(syrk[{k, i, 0}], syrk[{k + 1, i, 0}], comm());
      }
      for (int j = k + 1; j < i; ++j) {
        // GEMM(k,i,j) updates tile (i,j) with tiles (i,k) and (j,k).
        (void)b.add_edge(trsm[{k, i, 0}], gemm[{k, i, j}], comm());
        (void)b.add_edge(trsm[{k, j, 0}], gemm[{k, i, j}], comm());
        if (j == k + 1) {
          (void)b.add_edge(gemm[{k, i, j}], trsm[{k + 1, i, 0}], comm());
        } else {
          (void)b.add_edge(gemm[{k, i, j}], gemm[{k + 1, i, j}], comm());
        }
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// 2-D Laplace stencil (5-point, iterated)
// ---------------------------------------------------------------------------

int stencil_2d_task_count(int rows, int cols, int iters) {
  BSA_REQUIRE(rows >= 1 && cols >= 1 && iters >= 1,
              "stencil_2d needs rows,cols,iters >= 1");
  // All edges run between consecutive iterations, so a single sweep
  // over more than one cell would be an edgeless, disconnected graph.
  const std::int64_t cells = static_cast<std::int64_t>(rows) * cols;
  BSA_REQUIRE(iters >= 2 || cells == 1,
              "stencil_2d with rows*cols > 1 needs iters >= 2 "
              "(connectivity)");
  // 64-bit product: option values up to 1e9 would overflow int long
  // before the builder could ever materialise the graph.
  const std::int64_t count = cells * iters;
  BSA_REQUIRE(count <= 50000000,
              "stencil_2d size " << count << " exceeds 50M tasks");
  return static_cast<int>(count);
}

graph::TaskGraph stencil_2d(int rows, int cols, int iters,
                            const CostParams& costs) {
  (void)stencil_2d_task_count(rows, cols, iters);  // validates
  Rng rng(derive_seed(costs.seed, 0x7332ULL));  // "s2"
  graph::TaskGraphBuilder b;
  auto id = [rows, cols](int t, int i, int j) {
    return static_cast<TaskId>((t * rows + i) * cols + j);
  };
  for (int t = 0; t < iters; ++t) {
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        (void)b.add_task(draw_exec_cost(rng, costs),
                         "G" + std::to_string(t) + "_" + std::to_string(i) +
                             "_" + std::to_string(j));
      }
    }
  }
  constexpr int kDi[] = {0, -1, 1, 0, 0};
  constexpr int kDj[] = {0, 0, 0, -1, 1};
  for (int t = 0; t + 1 < iters; ++t) {
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        for (int n = 0; n < 5; ++n) {
          const int ni = i + kDi[n], nj = j + kDj[n];
          if (ni < 0 || ni >= rows || nj < 0 || nj >= cols) continue;
          (void)b.add_edge(id(t, i, j), id(t + 1, ni, nj),
                           draw_comm_cost(rng, costs));
        }
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Linear pipeline
// ---------------------------------------------------------------------------

int pipeline_task_count(int stages, int width) {
  BSA_REQUIRE(stages >= 1 && width >= 1, "pipeline needs stages,width >= 1");
  BSA_REQUIRE(stages >= 2 || width == 1,
              "pipeline with width > 1 needs stages >= 2 (connectivity)");
  const std::int64_t count = static_cast<std::int64_t>(stages) * width;
  BSA_REQUIRE(count <= 50000000,
              "pipeline size " << count << " exceeds 50M tasks");
  return static_cast<int>(count);
}

graph::TaskGraph pipeline(int stages, int width, const CostParams& costs) {
  (void)pipeline_task_count(stages, width);  // validates the parameters
  Rng rng(derive_seed(costs.seed, 0x7069ULL));  // "pi"
  graph::TaskGraphBuilder b;
  auto id = [width](int s, int l) {
    return static_cast<TaskId>(s * width + l);
  };
  for (int s = 0; s < stages; ++s) {
    for (int l = 0; l < width; ++l) {
      (void)b.add_task(draw_exec_cost(rng, costs),
                       "P" + std::to_string(s) + "_" + std::to_string(l));
    }
  }
  for (int s = 0; s + 1 < stages; ++s) {
    for (int l = 0; l < width; ++l) {
      (void)b.add_edge(id(s, l), id(s + 1, l), draw_comm_cost(rng, costs));
      if (l + 1 < width) {
        (void)b.add_edge(id(s, l), id(s + 1, l + 1),
                         draw_comm_cost(rng, costs));
      }
    }
  }
  return b.build();
}

}  // namespace bsa::workloads
