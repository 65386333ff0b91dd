#include "prt/packet.hpp"

#include <cstring>

#include "prt/packet_pool.hpp"

namespace pulsarqr::prt {

Packet Packet::make(std::size_t bytes, int meta) {
  return Packet(PacketPool::acquire(bytes), bytes, meta);
}

Packet Packet::clone() const {
  Packet p = make(size_, meta_);
  if (size_ > 0) std::memcpy(p.data_.get(), data_.get(), size_);
  return p;
}

}  // namespace pulsarqr::prt
