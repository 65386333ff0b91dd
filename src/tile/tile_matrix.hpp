// Tile storage: an m-by-n matrix partitioned into nb-by-nb tiles, each tile
// stored contiguously in column-major order (the PLASMA tile layout the
// paper relies on for cache friendliness and for shipping tiles as packets).
#pragma once

#include <cstddef>

#include "common/buffer.hpp"
#include "common/view.hpp"

namespace pulsarqr {

class TileMatrix {
 public:
  TileMatrix() = default;

  /// Create an m-by-n zero matrix with tile size nb. Boundary tiles are
  /// ragged (smaller) when nb does not divide m or n.
  TileMatrix(int m, int n, int nb);
  /// The same zero matrix in a MAP_SHARED mapping (see Buffer::shared):
  /// tiles written by forked child processes land in this process's
  /// memory. Result stores use it; inputs stay private.
  static TileMatrix shared(int m, int n, int nb);

  int rows() const { return m_; }
  int cols() const { return n_; }
  int nb() const { return nb_; }
  int mt() const { return mt_; }  ///< number of tile rows
  int nt() const { return nt_; }  ///< number of tile columns

  /// Height of tile row i / width of tile column j (ragged at the border).
  int tile_rows(int i) const;
  int tile_cols(int j) const;

  /// Mutable / const view of tile (i, j); leading dimension == tile height.
  MatrixView tile(int i, int j);
  ConstMatrixView tile(int i, int j) const;

  /// Raw contiguous storage of tile (i, j), tile_rows(i)*tile_cols(j) doubles.
  double* tile_data(int i, int j);
  const double* tile_data(int i, int j) const;

  /// Element access (slow; for tests and small problems).
  double& at(int i, int j);
  double at(int i, int j) const;

  /// Conversions between dense column-major and tile layout.
  static TileMatrix from_dense(ConstMatrixView a, int nb);
  Matrix to_dense() const;

 private:
  TileMatrix(int m, int n, int nb, bool shared);
  /// Tiles are packed column of tiles by column of tiles into one buffer:
  /// tile column j starts after j full-width columns, tile i of it after
  /// i full-height tiles.
  std::size_t offset(int i, int j) const {
    return static_cast<std::size_t>(m_) * nb_ * j +
           static_cast<std::size_t>(nb_) * tile_cols(j) * i;
  }
  double* base() const { return static_cast<double*>(buf_.data()); }

  int m_ = 0, n_ = 0, nb_ = 0, mt_ = 0, nt_ = 0;
  Buffer buf_;
};

}  // namespace pulsarqr
