// Kernel-launch engine of the GPU simulator.
//
// A simulated kernel is a C++ callable executed once per thread block of a
// grid. Blocks run in parallel on the host thread pool, each with a private
// SharedMemory arena and a private KernelStats accumulator (merged on
// completion) — mirroring how SMs execute CUDA blocks independently with
// private L1/shared memory. The arena is the host thread's own, reset for
// every block it runs. Numerics inside the block body are real, so every
// kernel's output is testable against a reference implementation.
#pragma once

#include <functional>
#include <string>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_stats.hpp"
#include "gpusim/shared_memory.hpp"

namespace fcm::gpusim {

/// Grid geometry of a launch (1-D grid; kernels linearise their own 2/3-D
/// block indices, like the paper's kernels do with blockIdx arithmetic).
struct LaunchConfig {
  std::int64_t grid_blocks = 0;
  int threads_per_block = 0;
  /// Shared memory requested per block, bytes. Checked against the device
  /// limit at launch (CUDA would fail the launch the same way).
  std::int64_t shared_bytes = 0;
};

/// Per-block execution context handed to the kernel body. All traffic
/// accounting flows through these helpers so the stats are a faithful
/// transaction count of what the block touched.
class BlockContext {
 public:
  BlockContext(std::int64_t block_id, SharedMemory& shmem, KernelStats& stats)
      : block_id_(block_id), shmem_(shmem), stats_(stats) {}

  std::int64_t block_id() const noexcept { return block_id_; }
  SharedMemory& shared() noexcept { return shmem_; }

  // --- traffic accounting -------------------------------------------------
  void global_load(std::int64_t bytes) { stats_.global_load_bytes += bytes; }
  /// Classified loads: feature-map reads and weight reads feed the L2
  /// absorption model (both also count into global_load_bytes).
  void load_ifm(std::int64_t bytes) {
    stats_.global_load_bytes += bytes;
    stats_.ifm_load_bytes += bytes;
  }
  void load_weights(std::int64_t bytes) {
    stats_.global_load_bytes += bytes;
    stats_.weight_load_bytes += bytes;
  }
  void global_store(std::int64_t bytes) { stats_.global_store_bytes += bytes; }
  void shared_load(std::int64_t bytes) { stats_.shared_load_bytes += bytes; }
  void shared_store(std::int64_t bytes) { stats_.shared_store_bytes += bytes; }
  /// `n` FP32 operations (one MAC == 2). `redundant` marks recomputation
  /// caused by fused-tile halos (counted inside `n` as well).
  void add_flops(std::int64_t n, std::int64_t redundant = 0) {
    stats_.flops += n;
    stats_.redundant_flops += redundant;
  }
  void add_int_ops(std::int64_t n, std::int64_t redundant = 0) {
    stats_.int_ops += n;
    stats_.redundant_flops += redundant;
  }

 private:
  std::int64_t block_id_;
  SharedMemory& shmem_;
  KernelStats& stats_;
};

using BlockBody = std::function<void(BlockContext&)>;

/// Execute `body` for every block of `cfg` on `dev`, returning merged stats.
/// Throws fcm::Error when the launch is infeasible (no blocks, shared memory
/// request above the device limit, threads not a positive warp multiple).
KernelStats launch_kernel(const DeviceSpec& dev, const std::string& name,
                          const LaunchConfig& cfg, const BlockBody& body);

}  // namespace fcm::gpusim
