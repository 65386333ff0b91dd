// Every kernel-table entry must be a pure function of its values and
// lengths: where its operands sit relative to each other in memory must
// not change a single bit of the result. The VSA's bitwise-equal-to-the-
// reference guarantee rests on it, because tile buffers land wherever the
// heap puts them. A compiler that versions a loop behind a runtime alias
// check (vector copy for far-apart operands, scalar copy for close ones)
// breaks it whenever the two copies round differently.
//
// For each ISA the host runs, f32 and f64, and lengths 1..3W (W = the
// widest vector's lanes), the read operand that shares the written
// operand's inner loop is placed 0..2W elements after the written one,
// 0..2W elements before it, and in its own allocation; the written
// operand's final bits must agree across all placements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "blas/simd.hpp"
#include "common/rng.hpp"
#include "isa_guard.hpp"

namespace pulsarqr {
namespace {

using blas::simd::Isa;
using blas::simd::KernelTable;

/// One kernel call with its operand values. `out` is updated in place;
/// `moved` is the read operand placed relative to it; `fixed` is any
/// other read operand, kept in a separate 64-byte-aligned allocation.
template <class T>
struct Case {
  std::string name;
  std::vector<T> out, moved, fixed;
  std::function<void(T* out, const T* moved, const T* fixed)> call;
};

template <class T>
std::vector<T> values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (T& x : v) x = static_cast<T>(rng.next_symmetric());
  return v;
}

/// `count` elements of T starting 64-byte aligned inside `storage`.
template <class T>
T* aligned_in(std::vector<T>& storage, std::size_t count) {
  storage.assign(count + 64 / sizeof(T), T(0));
  auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
  addr = (addr + 63) & ~std::uintptr_t{63};
  return reinterpret_cast<T*>(addr);
}

/// Run `c` with `moved` placed `gap` elements after the end of `out`
/// (after == true), `gap` elements before its start (after == false), or
/// in its own allocation (gap < 0); return the written operand.
template <class T>
std::vector<T> run_placed(const Case<T>& c, int gap, bool after) {
  std::vector<T> fixed_store, arena, far_store;
  T* fixed = aligned_in(fixed_store, c.fixed.size() + 1);
  std::copy(c.fixed.begin(), c.fixed.end(), fixed);
  const std::size_t nout = c.out.size(), nmoved = c.moved.size();
  const std::size_t span = nout + nmoved + static_cast<std::size_t>(
                                               gap < 0 ? 0 : gap);
  T* base = aligned_in(arena, 2 * span + 64 / sizeof(T));
  T* out = nullptr;
  T* moved = nullptr;
  if (gap < 0) {
    out = base;
    moved = aligned_in(far_store, nmoved);
  } else if (after) {
    out = base;
    moved = out + nout + gap;
  } else {
    // Keep `out` 64-byte aligned in every placement; only `moved` shifts.
    const std::size_t lead = nmoved + static_cast<std::size_t>(gap);
    const std::size_t lanes = 64 / sizeof(T);
    out = base + (lead + lanes - 1) / lanes * lanes;
    moved = out - lead;
  }
  std::copy(c.out.begin(), c.out.end(), out);
  std::copy(c.moved.begin(), c.moved.end(), moved);
  c.call(out, moved, fixed);
  return std::vector<T>(out, out + nout);
}

/// Every table entry at length n (and, for the multi-column entries, a
/// 4-column block plus remainders).
template <class T>
std::vector<Case<T>> cases_for(const KernelTable<T>& k, int n) {
  const auto un = static_cast<std::size_t>(n);
  const T alpha = static_cast<T>(0.7);
  std::vector<Case<T>> out;
  out.push_back({"axpy", values<T>(un, 1), values<T>(un, 2), {},
                 [&k, n](T* y, const T* x, const T*) {
                   k.axpy(n, static_cast<T>(0.3), x, y);
                 }});
  out.push_back({"dot", values<T>(1, 3), values<T>(un, 4), values<T>(un, 5),
                 [&k, n](T* r, const T* x, const T* y) {
                   r[0] += k.dot(n, x, y);
                 }});
  for (int ncols : {3, 5}) {
    const auto nc = static_cast<std::size_t>(ncols);
    const std::string cols = "/ncols=" + std::to_string(ncols);
    out.push_back({"dot_cols" + cols, values<T>(nc, 6), values<T>(un, 7),
                   values<T>(un * nc, 8),
                   [&k, n, ncols, alpha](T* o, const T* x, const T* y) {
                     k.dot_cols(n, alpha, x, y, n, ncols, o, 1);
                   }});
    out.push_back({"ger_cols" + cols, values<T>(un * nc, 9), values<T>(un, 10),
                   values<T>(nc, 11),
                   [&k, n, ncols, alpha](T* y, const T* x, const T* coeff) {
                     k.ger_cols(n, alpha, x, coeff, 1, y, n, ncols);
                   }});
    out.push_back({"axpy_cols" + cols, values<T>(un, 12),
                   values<T>(un * nc, 13), values<T>(nc, 14),
                   [&k, n, ncols, alpha](T* y, const T* x, const T* coeff) {
                     k.axpy_cols(n, alpha, coeff, 1, x, n, ncols, y);
                   }});
    out.push_back({"larf" + cols, values<T>(un * nc, 15), values<T>(un, 16),
                   {},
                   [&k, n, ncols](T* c, const T* v, const T*) {
                     k.larf(n, ncols, static_cast<T>(1.3), v, c, n);
                   }});
  }
  // gemm_micro: kc = n deep packed panels; the full tile and a ragged
  // edge tile (bounded writeback).
  const int mr = k.mr, nr = k.nr;
  for (bool ragged : {false, true}) {
    const int mr_eff = ragged ? mr - 1 : mr;
    const int nr_eff = ragged && nr > 1 ? nr - 1 : nr;
    out.push_back(
        {"gemm_micro/" + std::to_string(mr_eff) + "x" + std::to_string(nr_eff),
         values<T>(static_cast<std::size_t>(mr_eff * nr_eff), 17),
         values<T>(un * static_cast<std::size_t>(nr), 18),
         values<T>(un * static_cast<std::size_t>(mr), 19),
         [&k, n, mr_eff, nr_eff, alpha](T* c, const T* bp, const T* ap) {
           k.gemm_micro(n, alpha, ap, bp, c, mr_eff, mr_eff, nr_eff);
         }});
  }
  return out;
}

template <class T>
void expect_placement_independent() {
  const int w = 64 / static_cast<int>(sizeof(T));  // widest vector's lanes
  for (Isa isa : supported_isas()) {
    const KernelTable<T>& k = blas::simd::kernels<T>(isa);
    int failures = 0;
    for (int n = 1; n <= 3 * w; ++n) {
      for (const Case<T>& c : cases_for(k, n)) {
        const std::vector<T> want = run_placed(c, -1, true);
        for (bool after : {true, false}) {
          for (int gap = 0; gap <= 2 * w; ++gap) {
            const std::vector<T> got = run_placed(c, gap, after);
            if (std::memcmp(got.data(), want.data(), got.size() * sizeof(T)) ==
                0) {
              continue;
            }
            ADD_FAILURE() << blas::simd::isa_name(isa) << " " << c.name
                          << " n=" << n << ": moved operand " << gap
                          << " elements " << (after ? "after" : "before")
                          << " the written one changes the result bits";
            if (++failures >= 10) return;  // enough to diagnose
          }
        }
      }
    }
  }
}

TEST(KernelTableAlias, ResultsDoNotDependOnOperandDistanceF64) {
  expect_placement_independent<double>();
}

TEST(KernelTableAlias, ResultsDoNotDependOnOperandDistanceF32) {
  expect_placement_independent<float>();
}

}  // namespace
}  // namespace pulsarqr
