#include "vsaqr/result_store.hpp"

#include <cstring>
#include <new>
#include <string>

#include "blas/blas.hpp"

namespace pulsarqr::vsaqr {

namespace {

// The state flags are shared between processes, which is only sound for
// lock-free atomics (a lock would live in one process's memory).
static_assert(std::atomic<std::uint8_t>::is_always_lock_free,
              "ResultStore needs lock-free byte atomics in shared memory");

enum : std::uint8_t { kEmpty = 0, kWriting = 1, kWritten = 2 };

const char* const kSlotNames[] = {"tile", "geqrt T factors",
                                  "tree T factors"};

/// Bitwise equality of two equally-shaped views (memcmp per column: a
/// replayed deposit must reproduce the first write exactly, including
/// signed zeros and NaN payloads).
bool bitwise_equal(ConstMatrixView a, ConstMatrixView b) {
  for (int j = 0; j < a.cols; ++j) {
    if (std::memcmp(a.col(j), b.col(j),
                    static_cast<std::size_t>(a.rows) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

ResultStore::ResultStore(int m, int n, int nb, int ib)
    : a_(TileMatrix::shared(m, n, nb)),
      tg_(ref::TStore::shared(a_.mt(), a_.nt(), ib, nb, n)),
      tt_(ref::TStore::shared(a_.mt(), a_.nt(), ib, nb, n)),
      states_(
          Buffer::shared(3 * static_cast<std::size_t>(a_.mt()) * a_.nt())) {
  auto* flags = static_cast<std::uint8_t*>(states_.data());
  for (std::size_t k = 0; k < states_.size(); ++k) {
    new (flags + k) std::atomic<std::uint8_t>(kEmpty);
  }
}

MatrixView ResultStore::view(Slot s, int i, int j) {
  if (s == Slot::Tile) return a_.tile(i, j);
  return (s == Slot::Tg ? tg_ : tt_).t(i, j);
}

std::atomic<std::uint8_t>& ResultStore::state(Slot s, int i, int j) const {
  const std::size_t per_kind = static_cast<std::size_t>(a_.mt()) * a_.nt();
  const std::size_t k = static_cast<std::size_t>(s) * per_kind + i +
                        static_cast<std::size_t>(j) * a_.mt();
  return *std::launder(reinterpret_cast<std::atomic<std::uint8_t>*>(
      static_cast<std::uint8_t*>(states_.data()) + k));
}

void ResultStore::put(Slot s, int i, int j, ConstMatrixView v) {
  const MatrixView dst = view(s, i, j);
  PQR_ASSERT(dst.rows == v.rows && dst.cols == v.cols,
             "ResultStore: deposit shape mismatch");
  std::atomic<std::uint8_t>& st = state(s, i, j);
  std::uint8_t seen = kEmpty;
  if (!st.compare_exchange_strong(seen, kWriting)) {
    const std::string what = std::string("ResultStore: ") +
                             kSlotNames[static_cast<int>(s)] + " (" +
                             std::to_string(i) + "," + std::to_string(j) + ")";
    PQR_ASSERT(dedup_, what + " deposited twice");
    if (seen == kWritten) {
      PQR_ASSERT(bitwise_equal(v, dst),
                 what + ": conflicting re-deposit (replay produced different "
                        "content)");
      return;  // idempotent replay
    }
    // kWriting: torn by a killed incarnation; this deposit replaces it.
  }
  blas::lacpy_all(v, dst);
  st.store(kWritten);
}

void ResultStore::enable_dedup() { dedup_ = true; }

ref::TreeQrFactors ResultStore::finish(plan::ReductionPlan plan, int ib) {
  for (int j = 0; j < a_.nt(); ++j) {
    for (int i = 0; i < a_.mt(); ++i) {
      require(state(Slot::Tile, i, j).load() == kWritten,
              "ResultStore: tile (" + std::to_string(i) + "," +
                  std::to_string(j) + ") was never deposited");
    }
  }
  return ref::TreeQrFactors{std::move(a_), std::move(tg_), std::move(tt_),
                            std::move(plan), ib};
}

}  // namespace pulsarqr::vsaqr
