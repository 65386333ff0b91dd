// Sequential reference executor for a ReductionPlan — the ground truth the
// virtual systolic array is tested against, and the simplest way to use the
// tree QR without the runtime.
#pragma once

#include <vector>

#include "common/buffer.hpp"
#include "plan/reduction_plan.hpp"
#include "tile/tile_matrix.hpp"

namespace pulsarqr::ref {

/// Storage for the T factors of the block reflectors: one ib-by-(panel
/// width) tile per (tile row, panel) position, zero until written, all in
/// one buffer.
class TStore {
 public:
  TStore() = default;
  TStore(int mt, int nt, int ib, int nb, int n);
  /// The same store in a MAP_SHARED mapping (see TileMatrix::shared).
  static TStore shared(int mt, int nt, int ib, int nb, int n);
  MatrixView t(int i, int j);
  ConstMatrixView t(int i, int j) const;
  int ib() const { return ib_; }

 private:
  TStore(int mt, int nt, int ib, int nb, int n, bool shared);
  int cols(int j) const { return (j == nt_ - 1) ? n_ - j * nb_ : nb_; }
  /// Slots are packed panel by panel; panel j starts after j full-width
  /// panels of mt slots each.
  double* slot(int i, int j) const;

  int mt_ = 0, nt_ = 0, ib_ = 0, nb_ = 0, n_ = 0;
  Buffer buf_;
};

/// Output of a tree QR factorization. `a` holds R in the upper triangle of
/// the upper tile rows, flat-tree Householder vectors in the lower parts,
/// and binary-tree (TT) vectors in the upper triangles of eliminated head
/// tiles. `tg` holds geqrt T factors, `tt` holds tsqrt/ttqrt T factors
/// (each tile row is eliminated exactly once, so one slot per row suffices).
struct TreeQrFactors {
  TileMatrix a;
  TStore tg;
  TStore tt;
  plan::ReductionPlan plan;
  int ib = 0;
};

/// Execute one plan op against the factor storage (kernel dispatch shared
/// by the reference executor; the VSA performs the same calls on
/// packet-carried tiles).
void execute_op(const plan::Op& op, TileMatrix& a, TStore& tg, TStore& tt,
                int ib);

/// Factorize a tile matrix with the given tree configuration. The input is
/// consumed (moved into the factor storage).
TreeQrFactors tree_qr(TileMatrix a, int ib, const plan::PlanConfig& cfg);

/// Extract the dense n-by-n upper-triangular R factor.
Matrix extract_r(const TreeQrFactors& f);

}  // namespace pulsarqr::ref
