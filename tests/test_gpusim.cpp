// Unit tests for the GPU simulator: device specs, shared memory, launch
// engine, roofline timing, energy model.
#include <gtest/gtest.h>

#include "gpusim/device_spec.hpp"
#include "gpusim/energy_model.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/roofline.hpp"
#include "gpusim/shared_memory.hpp"

namespace fcm::gpusim {
namespace {

TEST(DeviceSpec, PaperDevicesMatchTableI) {
  const auto gtx = gtx1660();
  EXPECT_EQ(gtx.num_sms, 22);
  EXPECT_EQ(gtx.cuda_cores, 1408);
  EXPECT_EQ(gtx.l1_bytes, 96 * 1024);
  const auto rtx = rtx_a4000();
  EXPECT_EQ(rtx.cuda_cores, 6144);
  EXPECT_EQ(rtx.l1_bytes, 128 * 1024);
  const auto orin = jetson_orin();
  EXPECT_EQ(orin.num_sms, 16);
  EXPECT_EQ(orin.l1_bytes, 192 * 1024);
  EXPECT_EQ(paper_devices().size(), 3u);
}

TEST(DeviceSpec, DerivedThroughputs) {
  const auto d = gtx1660();
  EXPECT_NEAR(d.peak_fp32_flops(), 2.0 * 1408 * 1.785e9, 1e6);
  EXPECT_NEAR(d.peak_int8_ops(), 4.0 * d.peak_fp32_flops(), 1e6);
  EXPECT_EQ(d.cores_per_sm(), 64);
  EXPECT_EQ(rtx_a4000().cores_per_sm(), 128);
}

TEST(DeviceSpec, LookupByName) {
  EXPECT_EQ(device_by_name("GTX").name, "GTX-1660");
  EXPECT_EQ(device_by_name("RTX").name, "RTX-A4000");
  EXPECT_EQ(device_by_name("Orin").name, "Jetson-AGX-Orin");
  EXPECT_THROW(device_by_name("H100"), Error);
}

TEST(SharedMemory, AllocatesZeroedAndTracksUsage) {
  SharedMemory sm(1024);
  auto a = sm.allocate<float>(64, "a");
  EXPECT_EQ(a.size(), 64u);
  for (float v : a) EXPECT_EQ(v, 0.0f);
  EXPECT_GE(sm.used(), 256);
  auto b = sm.allocate<std::int8_t>(128, "b");
  b[0] = 3;
  EXPECT_GE(sm.used(), 256 + 128);
}

TEST(SharedMemory, ExhaustionThrows) {
  SharedMemory sm(100);
  EXPECT_THROW(sm.allocate<float>(32, "too-big"), Error);
}

TEST(SharedMemory, ConflictDegreeIsGcdWith32) {
  EXPECT_EQ(SharedMemory::conflict_degree(1), 1);
  EXPECT_EQ(SharedMemory::conflict_degree(2), 2);
  EXPECT_EQ(SharedMemory::conflict_degree(3), 1);
  EXPECT_EQ(SharedMemory::conflict_degree(8), 8);
  EXPECT_EQ(SharedMemory::conflict_degree(32), 32);
  EXPECT_EQ(SharedMemory::conflict_degree(33), 1);
}

TEST(SharedMemory, WarpAccessAccumulatesConflicts) {
  SharedMemory sm(1024);
  sm.note_warp_access(1, 100);  // conflict-free
  EXPECT_EQ(sm.bank_conflicts(), 0);
  sm.note_warp_access(32, 10);  // fully serialised: 31 extra each
  EXPECT_EQ(sm.bank_conflicts(), 310);
}

TEST(SharedMemory, ResetStartsAFreshZeroedBlock) {
  SharedMemory sm(1024);
  auto a = sm.allocate<float>(64, "a");
  for (float& v : a) v = 7.0f;
  sm.note_warp_access(32, 1);
  sm.reset(1024);
  EXPECT_EQ(sm.used(), 0);
  EXPECT_EQ(sm.bank_conflicts(), 0);
  for (float v : sm.allocate<float>(64, "again")) EXPECT_EQ(v, 0.0f);
  // The capacity follows reset() down as well as up, whatever storage the
  // arena already holds.
  sm.reset(100);
  EXPECT_EQ(sm.capacity(), 100);
  EXPECT_THROW(sm.allocate<float>(32, "too-big"), Error);
  sm.reset(4096);
  for (float v : sm.allocate<float>(1024, "grown")) EXPECT_EQ(v, 0.0f);
}

TEST(Launch, RunsEveryBlockAndMergesStats) {
  const auto dev = gtx1660();
  LaunchConfig cfg{/*grid_blocks=*/64, /*threads=*/128, /*shared=*/1024};
  std::atomic<std::int64_t> blocks_seen{0};
  const auto st = launch_kernel(dev, "t", cfg, [&](BlockContext& ctx) {
    blocks_seen++;
    ctx.global_load(100);
    ctx.global_store(10);
    ctx.add_flops(1000, 5);
  });
  EXPECT_EQ(blocks_seen.load(), 64);
  EXPECT_EQ(st.global_load_bytes, 6400);
  EXPECT_EQ(st.global_store_bytes, 640);
  EXPECT_EQ(st.flops, 64000);
  EXPECT_EQ(st.redundant_flops, 320);
  EXPECT_EQ(st.num_blocks, 64);
  EXPECT_EQ(st.launches, 1);
  EXPECT_EQ(st.gma_bytes(), 7040);
}

TEST(Launch, RejectsBadConfigs) {
  const auto dev = gtx1660();
  auto noop = [](BlockContext&) {};
  EXPECT_THROW(launch_kernel(dev, "t", {0, 128, 0}, noop), Error);
  EXPECT_THROW(launch_kernel(dev, "t", {1, 0, 0}, noop), Error);
  EXPECT_THROW(launch_kernel(dev, "t", {1, 100, 0}, noop), Error);  // not warp multiple
  EXPECT_THROW(launch_kernel(dev, "t", {1, 2048, 0}, noop), Error);
  EXPECT_THROW(
      launch_kernel(dev, "t", {1, 128, dev.max_shared_bytes + 1}, noop),
      Error);
}

TEST(Launch, DetectsUndeclaredSharedAllocation) {
  const auto dev = gtx1660();
  LaunchConfig cfg{1, 32, /*shared=*/16};
  EXPECT_THROW(launch_kernel(dev, "t", cfg,
                             [](BlockContext& ctx) {
                               ctx.shared().allocate<float>(64, "oops");
                             }),
               Error);
}

TEST(Launch, BlocksReuseArenasButSeeFreshSharedMemory) {
  // Blocks on one host thread share its arena: each must still start with
  // zeroed allocations, an empty arena and no inherited bank conflicts.
  const auto dev = gtx1660();
  LaunchConfig cfg{/*grid_blocks=*/256, /*threads=*/32, /*shared=*/4096};
  std::atomic<std::int64_t> dirty{0};
  const auto st = launch_kernel(dev, "t", cfg, [&](BlockContext& ctx) {
    if (ctx.shared().used() != 0) dirty++;
    auto buf = ctx.shared().allocate<std::int32_t>(1024, "buf");
    for (std::int32_t& v : buf) {
      if (v != 0) dirty++;
      v = -1;
    }
    ctx.shared().note_warp_access(2, 3);  // 3 extra transactions
  });
  EXPECT_EQ(dirty.load(), 0);
  EXPECT_EQ(st.bank_conflicts, 256 * 3);
}

TEST(Launch, SharedMemoryLimitFollowsEachLaunchDevice) {
  // A launch on a device with more shared memory must not leave a larger
  // arena capacity behind for the next launch on a smaller device.
  const auto big = jetson_orin();
  const auto small = gtx1660();
  const std::int64_t bytes = small.max_shared_bytes + 4096;
  ASSERT_LE(bytes, big.max_shared_bytes);
  auto body = [&](BlockContext& ctx) {
    ctx.shared().allocate<std::byte>(bytes, "tile");
  };
  EXPECT_NO_THROW(launch_kernel(big, "t", {8, 32, bytes}, body));
  EXPECT_THROW(launch_kernel(small, "t", {8, 32, small.max_shared_bytes}, body),
               Error);
}

TEST(KernelStats, Accumulation) {
  KernelStats a, b;
  a.global_load_bytes = 100;
  a.launches = 1;
  b.global_store_bytes = 50;
  b.launches = 1;
  const auto c = a + b;
  EXPECT_EQ(c.gma_bytes(), 150);
  EXPECT_EQ(c.launches, 2);
  EXPECT_NE(c.summary().find("GMA=150B"), std::string::npos);
}

TEST(Roofline, MemoryBoundKernel) {
  const auto dev = gtx1660();
  KernelStats st;
  st.global_load_bytes = 100'000'000;  // 100 MB
  st.flops = 1'000'000;               // trivial compute
  st.num_blocks = 1000;
  st.launches = 1;
  const auto t = estimate_time(dev, st);
  EXPECT_EQ(t.bound, Bound::kMemory);
  EXPECT_GT(t.memory_s, t.compute_s);
  EXPECT_GT(t.total_s, 0.0);
  EXPECT_NEAR(t.read_fraction, 1.0, 1e-9);
}

TEST(Roofline, ComputeBoundKernel) {
  const auto dev = gtx1660();
  KernelStats st;
  st.global_load_bytes = 1000;
  st.flops = 10'000'000'000;  // 10 GFLOP
  st.num_blocks = 1000;
  st.launches = 1;
  const auto t = estimate_time(dev, st);
  EXPECT_EQ(t.bound, Bound::kCompute);
  EXPECT_GT(t.compute_s, t.memory_s);
}

TEST(Roofline, UnderOccupancySlowsKernels) {
  const auto dev = rtx_a4000();
  KernelStats st;
  st.global_load_bytes = 10'000'000;
  st.flops = 1'000'000;
  st.launches = 1;
  st.num_blocks = dev.num_sms;  // fully occupied
  const double full = estimate_time(dev, st).total_s;
  st.num_blocks = dev.num_sms / 4;  // quarter occupied
  const double quarter = estimate_time(dev, st).total_s;
  EXPECT_GT(quarter, 3.0 * full);
}

TEST(Roofline, RidgeIntensityOrdering) {
  // dp4a quadruples arithmetic throughput, so the INT8 ridge sits 4× higher.
  const auto dev = rtx_a4000();
  EXPECT_NEAR(ridge_intensity_i8(dev), 4.0 * ridge_intensity_f32(dev), 1e-9);
}

TEST(Roofline, BankConflictsAddSharedTime) {
  const auto dev = gtx1660();
  KernelStats st;
  st.shared_load_bytes = 1'000'000;
  st.num_blocks = 100;
  st.launches = 1;
  const double base = estimate_time(dev, st).shared_s;
  st.bank_conflicts = 1'000'000;
  const double conflicted = estimate_time(dev, st).shared_s;
  EXPECT_GT(conflicted, base * 10);
}

TEST(Energy, DecomposesAndScalesWithTraffic) {
  const auto dev = jetson_orin();
  KernelStats st;
  st.global_load_bytes = 1'000'000;
  st.flops = 1'000'000;
  const auto e1 = estimate_energy(dev, st, 1e-3);
  EXPECT_GT(e1.dram_j, 0.0);
  EXPECT_GT(e1.compute_j, 0.0);
  EXPECT_NEAR(e1.static_j, dev.static_watts * 1e-3, 1e-12);
  st.global_load_bytes *= 2;
  const auto e2 = estimate_energy(dev, st, 1e-3);
  EXPECT_NEAR(e2.dram_j, 2.0 * e1.dram_j, 1e-15);
  EXPECT_GT(e2.total(), e1.total());
}

TEST(Energy, Int8OpsCheaperThanF32) {
  const auto dev = gtx1660();
  KernelStats f, q;
  f.flops = 1'000'000;
  q.int_ops = 1'000'000;
  EXPECT_GT(estimate_energy(dev, f, 0).compute_j,
            estimate_energy(dev, q, 0).compute_j);
}

}  // namespace
}  // namespace fcm::gpusim
