// Simulated per-SM shared memory (the programmer-managed portion of L1).
//
// Each simulated thread block owns one SharedMemory arena for its lifetime.
// Kernels allocate their staging buffers (the FCM commBuffer, weight tiles)
// from it; the arena enforces the device's capacity limit — exceeding it is
// the simulated equivalent of a CUDA launch failure, and FusePlanner's first
// constraint (Eq. 2–4: tiles must fit in L1) exists to avoid exactly that.
// The launch engine keeps one arena per host thread and reset()s it for every
// block, so its host storage is allocated once, not once per block.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace fcm::gpusim {

/// Arena allocator holding one simulated thread block's shared memory.
class SharedMemory {
 public:
  /// `capacity_bytes` is the device's configurable shared-memory limit.
  explicit SharedMemory(std::int64_t capacity_bytes);

  /// Start a new block with capacity `capacity_bytes`: nothing allocated and
  /// no bank conflicts recorded. Host storage only ever grows, and
  /// allocate() zero-fills what it hands out, so a block never sees the
  /// previous block's data.
  void reset(std::int64_t capacity_bytes);

  /// Allocate `count` elements of T, zero-initialised, 16-byte aligned.
  /// Throws fcm::Error when the block's shared memory is exhausted —
  /// kernels must size their tiles so this never fires (the planner
  /// guarantees it for planner-chosen tilings).
  template <typename T>
  std::span<T> allocate(std::int64_t count, const std::string& what) {
    const std::int64_t bytes = count * static_cast<std::int64_t>(sizeof(T));
    std::byte* p = allocate_raw(bytes, alignof(T), what);
    return std::span<T>(reinterpret_cast<T*>(p), static_cast<std::size_t>(count));
  }

  /// Bytes currently allocated.
  std::int64_t used() const noexcept { return used_; }
  std::int64_t capacity() const noexcept { return capacity_; }

  /// Record a warp's shared-memory access pattern with word stride `stride`.
  /// With 32 banks, the conflict degree is gcd(stride, 32); a degree-d access
  /// serialises into d transactions. Returns the extra (conflicting)
  /// transactions, which the launch engine folds into KernelStats.
  static std::int64_t conflict_degree(int stride_words) noexcept;

  void note_warp_access(int stride_words, std::int64_t num_warp_accesses);
  std::int64_t bank_conflicts() const noexcept { return bank_conflicts_; }

 private:
  std::byte* allocate_raw(std::int64_t bytes, std::size_t align,
                          const std::string& what);

  std::int64_t capacity_ = 0;
  std::int64_t used_ = 0;
  std::vector<std::byte> storage_;
  std::int64_t bank_conflicts_ = 0;
};

}  // namespace fcm::gpusim
