#include "gpusim/shared_memory.hpp"

#include <cstring>

namespace fcm::gpusim {

SharedMemory::SharedMemory(std::int64_t capacity_bytes) {
  reset(capacity_bytes);
}

void SharedMemory::reset(std::int64_t capacity_bytes) {
  FCM_CHECK(capacity_bytes >= 0, "negative shared memory capacity");
  if (static_cast<std::size_t>(capacity_bytes) > storage_.size()) {
    storage_.resize(static_cast<std::size_t>(capacity_bytes));
  }
  capacity_ = capacity_bytes;
  used_ = 0;
  bank_conflicts_ = 0;
}

std::byte* SharedMemory::allocate_raw(std::int64_t bytes, std::size_t align,
                                      const std::string& what) {
  FCM_CHECK(bytes >= 0, "negative shared memory request");
  const std::int64_t aligned_used =
      (used_ + static_cast<std::int64_t>(align) - 1) /
      static_cast<std::int64_t>(align) * static_cast<std::int64_t>(align);
  if (aligned_used + bytes > capacity_) {
    throw Error("shared memory exhausted allocating '" + what + "': need " +
                std::to_string(bytes) + "B at offset " +
                std::to_string(aligned_used) + ", capacity " +
                std::to_string(capacity_) + "B");
  }
  std::byte* p = storage_.data() + aligned_used;
  std::memset(p, 0, static_cast<std::size_t>(bytes));
  used_ = aligned_used + bytes;
  return p;
}

std::int64_t SharedMemory::conflict_degree(int stride_words) noexcept {
  // 32 banks, 4-byte words: threads t in a warp touch word t*stride; the
  // number of threads hitting the same bank is gcd(stride, 32).
  if (stride_words <= 0) return 1;
  return std::gcd(static_cast<std::int64_t>(stride_words),
                  static_cast<std::int64_t>(32));
}

void SharedMemory::note_warp_access(int stride_words,
                                    std::int64_t num_warp_accesses) {
  const std::int64_t extra = conflict_degree(stride_words) - 1;
  bank_conflicts_ += extra * num_warp_accesses;
}

}  // namespace fcm::gpusim
