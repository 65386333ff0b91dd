#include "common/buffer.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace pulsarqr {

Buffer Buffer::heap(std::size_t bytes) {
  Buffer b;
  if (bytes == 0) return b;
  // calloc: large blocks come from fresh zero pages, touched only when
  // written.
  b.data_ = std::calloc(bytes, 1);
  if (b.data_ == nullptr) throw std::bad_alloc();
  b.bytes_ = bytes;
  return b;
}

Buffer Buffer::shared(std::size_t bytes) {
  Buffer b;
  b.shared_ = true;
  if (bytes == 0) return b;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  require(p != MAP_FAILED, "Buffer: shared mapping failed: " +
                               std::string(std::strerror(errno)));
  b.data_ = p;
  b.bytes_ = bytes;
  return b;
}

Buffer::Buffer(Buffer&& o) noexcept
    : data_(std::exchange(o.data_, nullptr)),
      bytes_(std::exchange(o.bytes_, 0)),
      shared_(o.shared_) {}

Buffer& Buffer::operator=(Buffer&& o) noexcept {
  if (this != &o) {
    release();
    data_ = std::exchange(o.data_, nullptr);
    bytes_ = std::exchange(o.bytes_, 0);
    shared_ = o.shared_;
  }
  return *this;
}

Buffer::~Buffer() { release(); }

void Buffer::release() noexcept {
  if (data_ == nullptr) return;
  if (shared_) {
    ::munmap(data_, bytes_);
  } else {
    std::free(data_);
  }
  data_ = nullptr;
  bytes_ = 0;
}

}  // namespace pulsarqr
