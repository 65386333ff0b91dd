// Zero-filled storage owned by a move-only handle: either private heap
// memory or a MAP_SHARED anonymous mapping. A shared buffer made before
// fork() is the same physical memory in every process, so a forked node
// process writes straight into memory its parent reads — how result
// stores collect deposits under both transports.
#pragma once

#include <cstddef>

namespace pulsarqr {

class Buffer {
 public:
  Buffer() = default;
  /// Private heap memory, zero-filled.
  static Buffer heap(std::size_t bytes);
  /// MAP_SHARED | MAP_ANONYMOUS memory, zero-filled by the kernel and
  /// inherited (not copied) by child processes.
  static Buffer shared(std::size_t bytes);

  Buffer(Buffer&& o) noexcept;
  Buffer& operator=(Buffer&& o) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer();

  void* data() const { return data_; }
  std::size_t size() const { return bytes_; }

 private:
  void release() noexcept;
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool shared_ = false;
};

}  // namespace pulsarqr
