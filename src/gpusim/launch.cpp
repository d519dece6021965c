#include "gpusim/launch.hpp"

#include <mutex>

#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace fcm::gpusim {

namespace {

/// This host thread's shared-memory arena, reset for the next block. Blocks
/// on one thread run one after another (a kernel body never launches), so
/// one grow-only arena per thread replaces a device-sized allocation and
/// zero-fill per block.
SharedMemory& block_arena(std::int64_t capacity_bytes) {
  thread_local SharedMemory arena(0);
  arena.reset(capacity_bytes);
  return arena;
}

}  // namespace

KernelStats launch_kernel(const DeviceSpec& dev, const std::string& name,
                          const LaunchConfig& cfg, const BlockBody& body) {
  FCM_CHECK(cfg.grid_blocks > 0, "kernel '" + name + "': empty grid");
  FCM_CHECK(cfg.threads_per_block > 0, "kernel '" + name + "': no threads");
  FCM_CHECK(cfg.threads_per_block % kWarpSize == 0,
            "kernel '" + name + "': threads per block must be a warp multiple");
  FCM_CHECK(cfg.threads_per_block <= 1024,
            "kernel '" + name + "': more than 1024 threads per block");
  if (cfg.shared_bytes > dev.max_shared_bytes) {
    throw Error("kernel '" + name + "': shared memory request " +
                std::to_string(cfg.shared_bytes) + "B exceeds device limit " +
                std::to_string(dev.max_shared_bytes) + "B on " + dev.name);
  }

  KernelStats total;
  std::mutex merge_mu;

  ThreadPool::global().parallel_for(
      cfg.grid_blocks, [&](std::int64_t block_id) {
        SharedMemory& shmem = block_arena(dev.max_shared_bytes);
        KernelStats local;
        BlockContext ctx(block_id, shmem, local);
        body(ctx);
        FCM_ASSERT(shmem.used() <= cfg.shared_bytes,
                   "kernel '" + name + "' allocated more shared memory (" +
                       std::to_string(shmem.used()) +
                       "B) than its launch config declared (" +
                       std::to_string(cfg.shared_bytes) + "B)");
        local.bank_conflicts += shmem.bank_conflicts();
        std::lock_guard<std::mutex> lk(merge_mu);
        total += local;
      });

  total.num_blocks = cfg.grid_blocks;
  total.threads_per_block = cfg.threads_per_block;
  total.shared_bytes_per_block = cfg.shared_bytes;
  total.launches = 1;
  return total;
}

}  // namespace fcm::gpusim
