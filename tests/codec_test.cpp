// Tests for the tile / (V,T) packet encodings and the result store.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "vsaqr/codec.hpp"
#include "vsaqr/result_store.hpp"

namespace pulsarqr::vsaqr {
namespace {

TEST(Codec, TileRoundTrip) {
  Matrix a(7, 5);
  fill_random(a.view(), 3);
  prt::Packet p = encode_tile(a.view(), 42);
  EXPECT_EQ(p.meta(), 42);
  MatrixView v = tile_view(p);
  EXPECT_EQ(v.rows, 7);
  EXPECT_EQ(v.cols, 5);
  for (int j = 0; j < 5; ++j) {
    for (int i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(v(i, j), a(i, j));
  }
  // The view is mutable and payload-backed.
  v(3, 2) = -9.0;
  EXPECT_DOUBLE_EQ(tile_view(p)(3, 2), -9.0);
}

TEST(Codec, TileViewOfSubmatrixKeepsShape) {
  Matrix a(9, 9);
  fill_random(a.view(), 4);
  // Encode a non-contiguous block view; the packet stores it compactly.
  prt::Packet p = encode_tile(a.block(2, 3, 4, 5), 0);
  MatrixView v = tile_view(p);
  EXPECT_EQ(v.rows, 4);
  EXPECT_EQ(v.ld, 4);
  EXPECT_DOUBLE_EQ(v(1, 2), a(3, 5));
}

TEST(Codec, VtRoundTrip) {
  Matrix vmat(6, 4);
  Matrix tmat(2, 4);
  fill_random(vmat.view(), 5);
  fill_random(tmat.view(), 6);
  prt::Packet p = encode_vt(vmat.view(), tmat.view(), 7);
  EXPECT_EQ(p.meta(), 7);
  const VtView w = vt_view(p);
  EXPECT_EQ(w.v.rows, 6);
  EXPECT_EQ(w.v.cols, 4);
  EXPECT_EQ(w.t.rows, 2);
  EXPECT_EQ(w.t.cols, 4);
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(w.v(i, j), vmat(i, j));
    for (int i = 0; i < 2; ++i) EXPECT_DOUBLE_EQ(w.t(i, j), tmat(i, j));
  }
}

TEST(Codec, ByteBudgets) {
  EXPECT_GE(tile_packet_bytes(8, 8), (2 + 64) * sizeof(double));
  // A packet for any v <= 8x8 and t <= 3x8 must fit the declared budget.
  Matrix vmat(8, 8);
  Matrix tmat(3, 8);
  prt::Packet p = encode_vt(vmat.view(), tmat.view(), 0);
  EXPECT_LE(p.size(), vt_packet_bytes(8, 8, 3));
}

TEST(ResultStore, CollectsAndFinishes) {
  const int m = 10, n = 6, nb = 3, ib = 2;
  ResultStore store(m, n, nb, ib);
  Matrix tile(nb, nb);
  Matrix t(ib, nb);
  fill_random(tile.view(), 8);
  fill_random(t.view(), 9);
  for (int j = 0; j < store.nt(); ++j) {
    for (int i = 0; i < store.mt(); ++i) {
      const int tr = i == store.mt() - 1 ? m - i * nb : nb;
      const int tc = j == store.nt() - 1 ? n - j * nb : nb;
      store.put(ResultStore::Slot::Tile, i, j, tile.block(0, 0, tr, tc));
      store.put(ResultStore::Slot::Tg, i, j, t.block(0, 0, ib, tc));
      store.put(ResultStore::Slot::Tt, i, j, t.block(0, 0, ib, tc));
    }
  }
  auto factors = store.finish(
      plan::ReductionPlan(store.mt(), store.nt(),
                          {plan::TreeKind::Flat, 1,
                           plan::BoundaryMode::Shifted}),
      ib);
  EXPECT_DOUBLE_EQ(factors.a.at(0, 0), tile(0, 0));
  EXPECT_DOUBLE_EQ(factors.tg.t(1, 1)(0, 0), t(0, 0));
}

TEST(ResultStore, FinishRejectsMissingTiles) {
  ResultStore store(6, 6, 3, 2);
  Matrix tile(3, 3);
  store.put(ResultStore::Slot::Tile, 0, 0, tile.view());  // one of four
  EXPECT_THROW(store.finish(plan::ReductionPlan(
                                2, 2, {plan::TreeKind::Flat, 1,
                                       plan::BoundaryMode::Shifted}),
                            2),
               Error);
}

}  // namespace
}  // namespace pulsarqr::vsaqr
