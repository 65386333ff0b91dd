// Pooled allocator for Packet payload buffers.
//
// The tree-QR pipeline emits a flood of identically-sized nb×nb / ib×nb
// frames per panel step; routing every Packet::make through the global
// allocator puts malloc on the transport fast path. The pool recycles
// released payload buffers through power-of-two size classes so a warmed
// steady state performs zero packet allocations:
//
//   * thread-local magazines — a small per-thread, per-class stack of free
//     buffers. The common free/alloc pair (a VDP dropping a consumed tile,
//     then making its output packet of the same class) never takes a lock.
//   * a global spill list per class — magazines overflow into it and
//     refill from it, so buffers freed on one thread (packets routinely
//     cross threads through channels and the proxy) come back to whichever
//     thread allocates next.
//
// The pool is process-global and always on. Buffers above the largest
// size class bypass it and come straight from the heap. All buffers are
// 64-byte aligned.
#pragma once

#include <cstddef>
#include <memory>

namespace pulsarqr::prt {

class PacketPool {
 public:
  /// Monotone process-lifetime totals (relaxed atomics; exact once the
  /// threads touching the pool are quiescent). RunStats reports the delta
  /// of hits/misses over a run: a warmed steady state shows misses == 0.
  struct Stats {
    long long hits = 0;      ///< buffers served from a magazine or spill list
    long long misses = 0;    ///< fresh heap allocations of poolable sizes
    long long oversize = 0;  ///< requests above the largest class (unpooled)
    long long recycled = 0;  ///< buffers returned to the pool on last release
  };

  /// A buffer of at least `bytes` bytes (rounded up to the size class);
  /// its deleter returns the buffer to the pool on last-reference release.
  static std::shared_ptr<std::byte[]> acquire(std::size_t bytes);

  static Stats stats();

  /// The buffer capacity a request of `bytes` is served with, or 0 when
  /// the size is above the largest class and bypasses the pool.
  static std::size_t capacity_for(std::size_t bytes);

  /// Free every buffer cached in the global spill lists (thread-local
  /// magazines are flushed only at thread exit). Test / low-memory hook.
  static void trim();
};

}  // namespace pulsarqr::prt
