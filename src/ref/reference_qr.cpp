#include "ref/reference_qr.hpp"

#include <algorithm>
#include <utility>

#include "kernels/tile_kernels.hpp"

namespace pulsarqr::ref {

TStore::TStore(int mt, int nt, int ib, int nb, int n)
    : TStore(mt, nt, ib, nb, n, false) {}

TStore TStore::shared(int mt, int nt, int ib, int nb, int n) {
  return TStore(mt, nt, ib, nb, n, true);
}

TStore::TStore(int mt, int nt, int ib, int nb, int n, bool shared)
    : mt_(mt), nt_(nt), ib_(ib), nb_(nb), n_(n) {
  const std::size_t bytes =
      static_cast<std::size_t>(mt) * ib * n * sizeof(double);
  buf_ = shared ? Buffer::shared(bytes) : Buffer::heap(bytes);
}

double* TStore::slot(int i, int j) const {
  PQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_, "TStore: out of range");
  return static_cast<double*>(buf_.data()) +
         static_cast<std::size_t>(ib_) *
             (static_cast<std::size_t>(mt_) * nb_ * j +
              static_cast<std::size_t>(cols(j)) * i);
}

MatrixView TStore::t(int i, int j) {
  return MatrixView(slot(i, j), ib_, cols(j), ib_);
}

ConstMatrixView TStore::t(int i, int j) const {
  return ConstMatrixView(slot(i, j), ib_, cols(j), ib_);
}

void execute_op(const plan::Op& op, TileMatrix& a, TStore& tg, TStore& tt,
                int ib) {
  using plan::OpKind;
  const int pw = a.tile_cols(op.j);  // panel width
  switch (op.kind) {
    case OpKind::Geqrt:
      kernels::geqrt(a.tile(op.i, op.j), ib, tg.t(op.i, op.j));
      break;
    case OpKind::Ormqr:
      kernels::ormqr(blas::Trans::Yes, a.tile(op.i, op.j), tg.t(op.i, op.j),
                     ib, a.tile(op.i, op.l));
      break;
    case OpKind::Tsqrt:
      kernels::tsqrt(a.tile(op.i, op.j).block(0, 0, pw, pw),
                     a.tile(op.k, op.j), ib, tt.t(op.k, op.j));
      break;
    case OpKind::Tsmqr:
      kernels::tsmqr(blas::Trans::Yes, a.tile(op.k, op.j), tt.t(op.k, op.j),
                     ib, a.tile(op.i, op.l), a.tile(op.k, op.l));
      break;
    case OpKind::Ttqrt:
      kernels::ttqrt(a.tile(op.i, op.j).block(0, 0, pw, pw),
                     a.tile(op.k, op.j), ib, tt.t(op.k, op.j));
      break;
    case OpKind::Ttmqr:
      kernels::ttmqr(blas::Trans::Yes, a.tile(op.k, op.j), tt.t(op.k, op.j),
                     ib, a.tile(op.i, op.l), a.tile(op.k, op.l));
      break;
  }
}

TreeQrFactors tree_qr(TileMatrix a, int ib, const plan::PlanConfig& cfg) {
  require(ib >= 1 && ib <= a.nb(), "tree_qr: need 1 <= ib <= nb");
  const int mt = a.mt();
  const int nt = a.nt();
  const int nb = a.nb();
  const int n = a.cols();
  TreeQrFactors f{std::move(a), TStore(mt, nt, ib, nb, n),
                  TStore(mt, nt, ib, nb, n),
                  plan::ReductionPlan(mt, nt, cfg), ib};
  for (const auto& op : f.plan.ops()) {
    execute_op(op, f.a, f.tg, f.tt, ib);
  }
  return f;
}

Matrix extract_r(const TreeQrFactors& f) {
  const int n = f.a.cols();
  Matrix r(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) {
      if (i < f.a.rows()) r(i, j) = f.a.at(i, j);
    }
  }
  return r;
}

}  // namespace pulsarqr::ref
