// Collection point for the factorization's outputs, shared by threads and
// by forked node processes.
//
// Tiles leave the systolic array when they become final (eliminated V
// tiles, binary losers, and the R tiles of each step's survivor row); the
// VDP that finalizes a tile deposits it here together with its T factors.
// The tile matrix, both T stores and the slots' state flags live in
// MAP_SHARED mappings made when the store is (before any fork), so a
// socket node process writes its deposits straight into the caller's
// memory and the in-process transport uses the very same path. Every
// (i, j) slot is written exactly once, by exactly one VDP, so writes are
// lock-free; the flags catch double writes and missing tiles.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/buffer.hpp"
#include "ref/reference_qr.hpp"
#include "tile/tile_matrix.hpp"

namespace pulsarqr::vsaqr {

class ResultStore {
 public:
  /// A deposit's destination: a factor tile, the geqrt T factors of a
  /// tile, or the tsqrt/ttqrt T factors of an eliminated tile row.
  enum class Slot : std::uint8_t { Tile = 0, Tg = 1, Tt = 2 };

  ResultStore(int m, int n, int nb, int ib);

  int mt() const { return a_.mt(); }
  int nt() const { return a_.nt(); }

  /// Deposit the final content of slot `s` at (i, j); `v` must have the
  /// slot's exact shape.
  void put(Slot s, int i, int j, ConstMatrixView v);

  /// Verify completeness (every tile deposited) and move the collected
  /// factors out. `plan` must describe the run that filled the store.
  ref::TreeQrFactors finish(plan::ReductionPlan plan, int ib);

  // ---- crash recovery: exactly-once deposits ----
  //
  // A slot moves empty -> writing -> written. A respawned node re-fires
  // its VDPs from scratch, so with dedup enabled a slot can be deposited
  // again: a written slot is verified to be bitwise identical to the
  // first write and then skipped; a slot still in the writing state was
  // torn by the killed incarnation (the parent respawns only after
  // reaping it, so no writer is left) and is overwritten. A re-deposit
  // with DIFFERENT content still asserts: that is not recovery, it is two
  // VDPs claiming one slot. Without dedup any second deposit asserts.

  /// Make re-deposits idempotent (verify + skip, or overwrite a torn
  /// slot) instead of fatal. Call BEFORE the run.
  void enable_dedup();

 private:
  MatrixView view(Slot s, int i, int j);
  std::atomic<std::uint8_t>& state(Slot s, int i, int j) const;

  TileMatrix a_;
  ref::TStore tg_;
  ref::TStore tt_;
  /// One state byte per (slot kind, i, j), in a shared mapping.
  Buffer states_;
  bool dedup_ = false;
};

}  // namespace pulsarqr::vsaqr
