#include "prt/packet_pool.hpp"

#include <atomic>
#include <mutex>
#include <new>
#include <vector>

#include "prt/tsan.hpp"

namespace pulsarqr::prt {

namespace {

constexpr std::size_t kMinClass = 64;  // one cache line
constexpr int kClasses = 18;           // 64 B .. 8 MiB (64 << 17)
// Buffers per thread per class. Small on purpose: a thread that frees
// more of a class than it allocates (a worker dropping the clones a proxy
// made) holds up to this many that no other thread can reach until the
// magazine overflows or the thread exits.
constexpr int kMagazineCap = 8;
constexpr int kRefill = kMagazineCap / 2;

std::size_t class_capacity(int idx) { return kMinClass << idx; }

/// Smallest class holding `bytes`, or -1 above the largest class.
int class_index(std::size_t bytes) {
  std::size_t cap = kMinClass;
  for (int idx = 0; idx < kClasses; ++idx, cap <<= 1) {
    if (bytes <= cap) return idx;
  }
  return -1;
}

std::byte* heap_alloc(std::size_t bytes) {
  // Over-align to 64 bytes so double payloads sit on cache lines.
  return static_cast<std::byte*>(
      ::operator new[](bytes > 0 ? bytes : 1, std::align_val_t(64)));
}

void heap_free(std::byte* p) {
  ::operator delete[](p, std::align_val_t(64));
}

/// Global half of the pool. Leaky singleton: Packet deleters may run from
/// static destructors, so the pool must outlive everything.
struct Central {
  std::atomic<long long> hits{0};
  std::atomic<long long> misses{0};
  std::atomic<long long> oversize{0};
  std::atomic<long long> recycled{0};
  struct ClassList {
    std::mutex mu;
    std::vector<std::byte*> free;
  };
  ClassList spill[kClasses];
};

Central& central() {
  static Central* c = new Central;
  return *c;
}

struct Magazine {
  std::byte* bufs[kClasses][kMagazineCap];
  int count[kClasses] = {};
  int trips[kClasses] = {};  ///< refills taken from the spill list so far
};

// The magazine is reached through a trivially-destructible thread_local
// pointer: after the owning destructor runs (late in thread teardown) the
// pointer reads null and frees fall through to the global spill list, so
// a Packet released from another thread_local's destructor stays safe.
thread_local Magazine* tls_magazine = nullptr;
thread_local bool tls_dead = false;

void spill_to_central(int idx, std::byte** bufs, int n) {
  auto& cls = central().spill[idx];
  std::lock_guard<std::mutex> lock(cls.mu);
  cls.free.insert(cls.free.end(), bufs, bufs + n);
}

struct MagazineOwner {
  Magazine* mag = nullptr;
  ~MagazineOwner() {
    if (mag != nullptr) {
      for (int idx = 0; idx < kClasses; ++idx) {
        if (mag->count[idx] > 0) {
          spill_to_central(idx, mag->bufs[idx], mag->count[idx]);
        }
      }
      delete mag;
    }
    tls_magazine = nullptr;
    tls_dead = true;
  }
};

Magazine* magazine() {
  if (tls_magazine == nullptr && !tls_dead) {
    static thread_local MagazineOwner owner;
    owner.mag = new Magazine;
    tls_magazine = owner.mag;
  }
  return tls_magazine;
}

void release(std::byte* p, int idx) {
  // The buffer leaves this thread's use: whatever was written into it is
  // published to the thread that next draws it from a magazine or the
  // spill list (the mutex / last-shared_ptr release already order this;
  // see tsan.hpp).
  PULSARQR_TSAN_RELEASE(p);
  Central& c = central();
  c.recycled.fetch_add(1, std::memory_order_relaxed);
  Magazine* mag = magazine();
  if (mag == nullptr) {
    spill_to_central(idx, &p, 1);
    return;
  }
  if (mag->count[idx] == kMagazineCap) {
    // Full: spill the older half so cross-thread flows (alloc here, free
    // there) drain back to the global list instead of piling up locally.
    spill_to_central(idx, mag->bufs[idx], kRefill);
    mag->count[idx] = kMagazineCap - kRefill;
    for (int i = 0; i < mag->count[idx]; ++i) {
      mag->bufs[idx][i] = mag->bufs[idx][i + kRefill];
    }
  }
  mag->bufs[idx][mag->count[idx]++] = p;
}

std::shared_ptr<std::byte[]> wrap_pooled(std::byte* p, int idx) {
  return std::shared_ptr<std::byte[]>(p,
                                      [idx](std::byte* q) { release(q, idx); });
}

std::shared_ptr<std::byte[]> wrap_plain(std::byte* p) {
  return std::shared_ptr<std::byte[]>(p, [](std::byte* q) { heap_free(q); });
}

}  // namespace

std::shared_ptr<std::byte[]> PacketPool::acquire(std::size_t bytes) {
  Central& c = central();
  const int idx = class_index(bytes);
  if (idx < 0) {
    c.oversize.fetch_add(1, std::memory_order_relaxed);
    return wrap_plain(heap_alloc(bytes));
  }
  Magazine* mag = magazine();
  if (mag != nullptr && mag->count[idx] > 0) {
    c.hits.fetch_add(1, std::memory_order_relaxed);
    std::byte* out = mag->bufs[idx][--mag->count[idx]];
    PULSARQR_TSAN_ACQUIRE(out);  // buffer handoff from its previous owner
    return wrap_pooled(out, idx);
  }
  // Magazine empty: refill a batch from the global spill list so the next
  // few allocations of this class stay lock-free. The batch grows with
  // the thread's trips to the list: none on the first, one more per trip
  // up to kRefill, and never more than half of what the list holds. A
  // fresh thread that needs one buffer of a class therefore takes one,
  // instead of stranding a batch in its magazine while the next thread to
  // ask (a proxy cloning a burst of tiles) finds the list empty.
  {
    auto& cls = c.spill[idx];
    std::lock_guard<std::mutex> lock(cls.mu);
    if (!cls.free.empty()) {
      std::byte* out = cls.free.back();
      cls.free.pop_back();
      if (mag != nullptr) {
        int take = static_cast<int>(cls.free.size() / 2);
        if (take > mag->trips[idx]) take = mag->trips[idx];
        if (mag->trips[idx] < kRefill) ++mag->trips[idx];
        while (take-- > 0) {
          mag->bufs[idx][mag->count[idx]++] = cls.free.back();
          cls.free.pop_back();
        }
      }
      c.hits.fetch_add(1, std::memory_order_relaxed);
      PULSARQR_TSAN_ACQUIRE(out);  // buffer handoff via the spill list
      return wrap_pooled(out, idx);
    }
  }
  c.misses.fetch_add(1, std::memory_order_relaxed);
  return wrap_pooled(heap_alloc(class_capacity(idx)), idx);
}

PacketPool::Stats PacketPool::stats() {
  Central& c = central();
  Stats s;
  s.hits = c.hits.load(std::memory_order_relaxed);
  s.misses = c.misses.load(std::memory_order_relaxed);
  s.oversize = c.oversize.load(std::memory_order_relaxed);
  s.recycled = c.recycled.load(std::memory_order_relaxed);
  return s;
}

std::size_t PacketPool::capacity_for(std::size_t bytes) {
  const int idx = class_index(bytes);
  return idx < 0 ? 0 : class_capacity(idx);
}

void PacketPool::trim() {
  Central& c = central();
  for (int idx = 0; idx < kClasses; ++idx) {
    std::vector<std::byte*> taken;
    {
      std::lock_guard<std::mutex> lock(c.spill[idx].mu);
      taken.swap(c.spill[idx].free);
    }
    for (std::byte* p : taken) heap_free(p);
  }
}

}  // namespace pulsarqr::prt
