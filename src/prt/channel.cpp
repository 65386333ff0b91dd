#include "prt/channel.hpp"

#include "common/error.hpp"
#include "prt/tsan.hpp"

namespace pulsarqr::prt {

Channel::Channel(std::size_t max_bytes, bool enabled, int capacity)
    : max_bytes_(max_bytes), capacity_(capacity), enabled_(enabled) {
  Node* dummy = new Node;
  head_.store(dummy, std::memory_order_relaxed);
  tail_ = dummy;
  first_ = dummy;
  head_copy_ = dummy;
}

Channel::~Channel() {
  // Every node ever allocated is reachable from first_ through the next
  // chain (recycling pops from the front and relinks at the tail).
  Node* n = first_;
  while (n != nullptr) {
    Node* next = n->next.load(std::memory_order_relaxed);
    delete n;
    n = next;
  }
}

Channel::Node* Channel::alloc_node() {
  // Recycle a node the consumer has moved past; nodes strictly before
  // head_ are no longer referenced by the consumer. Refresh the cached
  // head position only when the cache runs dry (Vyukov's SPSC cache).
  if (first_ != head_copy_) {
    Node* n = first_;
    first_ = n->next.load(std::memory_order_relaxed);
    PULSARQR_TSAN_ACQUIRE(n);  // node handed back by the consumer's pop
    return n;
  }
  head_copy_ = head_.load(std::memory_order_acquire);
  if (first_ != head_copy_) {
    Node* n = first_;
    first_ = n->next.load(std::memory_order_relaxed);
    PULSARQR_TSAN_ACQUIRE(n);
    return n;
  }
  return new Node;
}

void Channel::push(Packet p) {
  PQR_ASSERT(p.size() <= max_bytes_,
             "channel: packet exceeds the declared maximum size");
  // No fence or handshake against destroy(): a push racing destroy() may
  // link its node after the drain walked past, but a destroyed channel
  // reports size() == 0 forever, so the straggler is unobservable — its
  // payload is released by drain() if the walk saw it, else by the
  // destructor. Everything here is plain or release-ordered.
  if (destroyed_.load(std::memory_order_acquire)) return;
  Node* n = alloc_node();
  n->p = std::move(p);
  n->next.store(nullptr, std::memory_order_relaxed);
  PULSARQR_TSAN_RELEASE(n);  // payload handoff to the consumer
  tail_->next.store(n, std::memory_order_release);
  tail_ = n;
  // Single-writer counter: plain load + store, no RMW on the hot path.
  pushed_.store(pushed_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  if (waker_ != nullptr) waker_->wake();
}

Packet Channel::pop() {
  Node* h = head_.load(std::memory_order_relaxed);  // consumer-owned
  Node* n = h->next.load(std::memory_order_acquire);
  PQR_ASSERT(n != nullptr, "channel: pop from empty channel");
  PULSARQR_TSAN_ACQUIRE(n);  // pairs with the producer's payload handoff
  Packet p = std::move(n->p);
  PULSARQR_TSAN_RELEASE(h);  // node handed back for producer recycling
  head_.store(n, std::memory_order_release);  // frees h for recycling
  popped_.store(popped_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  if (pop_waker_ != nullptr) pop_waker_->wake();
  return p;
}

void Channel::drain() {
  // Consumer-side drop of everything queued: advance head_ over all
  // linked nodes, releasing each payload now rather than at destruction.
  Node* h = head_.load(std::memory_order_relaxed);
  long long dropped = 0;
  while (Node* n = h->next.load(std::memory_order_acquire)) {
    n->p = Packet();
    h = n;
    ++dropped;
  }
  head_.store(h, std::memory_order_release);
  popped_.store(popped_.load(std::memory_order_relaxed) + dropped,
                std::memory_order_release);
}

int Channel::size() const {
  // A destroyed channel is empty forever, even if a push that raced
  // destroy() managed to link a node (see push).
  if (destroyed_.load(std::memory_order_acquire)) return 0;
  // pushed_ is loaded first: popped_ can only advance past the loaded
  // pushed_ value if more pushes happened since, so the difference only
  // ever under-reports (clamped at zero) — never phantom packets.
  const long long pushed = pushed_.load(std::memory_order_acquire);
  const long long popped = popped_.load(std::memory_order_acquire);
  const long long n = pushed - popped;
  return n > 0 ? static_cast<int>(n) : 0;
}

void Channel::set_enabled(bool e) {
  enabled_.store(e, std::memory_order_release);
  if (e && waker_ != nullptr) waker_->wake();
}

void Channel::destroy() {
  enabled_.store(false, std::memory_order_release);
  // After this store, size() pins to zero and later pushes drop their
  // packet on entry. One already-in-flight push may still link a node the
  // drain below misses; it stays in the list, unobservable, until the
  // destructor frees it. Nothing resurfaces on a destroyed channel and no
  // per-push fence is needed to guarantee it.
  destroyed_.store(true, std::memory_order_release);
  drain();
  // A destroyed channel reports size() == 0 forever, so any producer
  // stalled on has_room() can proceed.
  if (pop_waker_ != nullptr) pop_waker_->wake();
}

}  // namespace pulsarqr::prt
