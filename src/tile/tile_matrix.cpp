#include "tile/tile_matrix.hpp"

#include "blas/blas.hpp"

namespace pulsarqr {

TileMatrix::TileMatrix(int m, int n, int nb) : TileMatrix(m, n, nb, false) {}

TileMatrix TileMatrix::shared(int m, int n, int nb) {
  return TileMatrix(m, n, nb, true);
}

TileMatrix::TileMatrix(int m, int n, int nb, bool shared)
    : m_(m), n_(n), nb_(nb) {
  require(m >= 0 && n >= 0 && nb >= 1, "TileMatrix: bad dimensions");
  mt_ = (m + nb - 1) / nb;
  nt_ = (n + nb - 1) / nb;
  const std::size_t bytes = static_cast<std::size_t>(m) * n * sizeof(double);
  buf_ = shared ? Buffer::shared(bytes) : Buffer::heap(bytes);
}

int TileMatrix::tile_rows(int i) const {
  PQR_ASSERT(i >= 0 && i < mt_, "tile_rows: index out of range");
  return (i == mt_ - 1) ? m_ - i * nb_ : nb_;
}

int TileMatrix::tile_cols(int j) const {
  PQR_ASSERT(j >= 0 && j < nt_, "tile_cols: index out of range");
  return (j == nt_ - 1) ? n_ - j * nb_ : nb_;
}

MatrixView TileMatrix::tile(int i, int j) {
  const int tr = tile_rows(i);
  return MatrixView(base() + offset(i, j), tr, tile_cols(j), tr);
}

ConstMatrixView TileMatrix::tile(int i, int j) const {
  const int tr = tile_rows(i);
  return ConstMatrixView(base() + offset(i, j), tr, tile_cols(j), tr);
}

double* TileMatrix::tile_data(int i, int j) { return base() + offset(i, j); }
const double* TileMatrix::tile_data(int i, int j) const {
  return base() + offset(i, j);
}

double& TileMatrix::at(int i, int j) {
  PQR_ASSERT(i >= 0 && i < m_ && j >= 0 && j < n_, "at: out of range");
  return tile(i / nb_, j / nb_)(i % nb_, j % nb_);
}

double TileMatrix::at(int i, int j) const {
  PQR_ASSERT(i >= 0 && i < m_ && j >= 0 && j < n_, "at: out of range");
  return tile(i / nb_, j / nb_)(i % nb_, j % nb_);
}

TileMatrix TileMatrix::from_dense(ConstMatrixView a, int nb) {
  TileMatrix t(a.rows, a.cols, nb);
  for (int j = 0; j < t.nt_; ++j) {
    for (int i = 0; i < t.mt_; ++i) {
      blas::lacpy_all(
          a.block(i * nb, j * nb, t.tile_rows(i), t.tile_cols(j)),
          t.tile(i, j));
    }
  }
  return t;
}

Matrix TileMatrix::to_dense() const {
  Matrix a(m_, n_);
  for (int j = 0; j < nt_; ++j) {
    for (int i = 0; i < mt_; ++i) {
      blas::lacpy_all(tile(i, j),
                      a.view().block(i * nb_, j * nb_, tile_rows(i), tile_cols(j)));
    }
  }
  return a;
}

}  // namespace pulsarqr
