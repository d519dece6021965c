// Per-kernel execution statistics collected by the simulator.
//
// These counters are the simulated analogue of what the paper measures with
// NVIDIA Nsight Compute: global-memory load/store traffic, arithmetic work,
// shared-memory usage and redundant computation introduced by fusion.
#pragma once

#include <cstdint>
#include <string>

namespace fcm::gpusim {

/// Aggregated counters for one kernel launch (or a sum over launches).
struct KernelStats {
  // Off-chip (global memory) traffic, bytes. The central quantity of the
  // paper: FCMs exist to shrink these two numbers.
  std::int64_t global_load_bytes = 0;
  std::int64_t global_store_bytes = 0;

  // Classified subsets of global_load_bytes (feature-map reads vs weight
  // reads; anything else — e.g. offset tables — is the remainder). The L2
  // absorption model needs the split because feature maps and weights have
  // very different reuse footprints.
  std::int64_t ifm_load_bytes = 0;
  std::int64_t weight_load_bytes = 0;

  // On-chip shared-memory traffic, bytes (through the commBuffer and weight
  // staging buffers).
  std::int64_t shared_load_bytes = 0;
  std::int64_t shared_store_bytes = 0;

  // Arithmetic work. `flops` counts FP32 operations (a MAC = 2 ops);
  // `int_ops` counts INT8 operations in the dp4a path. `redundant_flops`
  // is the subset of flops recomputed because of fused-tile overlap halos
  // (PWDW_R), already included in `flops`.
  std::int64_t flops = 0;
  std::int64_t int_ops = 0;
  std::int64_t redundant_flops = 0;

  // Launch geometry of the (last) launch.
  std::int64_t num_blocks = 0;
  int threads_per_block = 0;
  /// Shared memory requested per block, bytes.
  std::int64_t shared_bytes_per_block = 0;
  /// Number of kernel launches folded into this stats object.
  int launches = 0;

  /// Shared-memory bank conflicts detected (simulated, see SharedMemory).
  std::int64_t bank_conflicts = 0;

  /// Total global-memory traffic (the paper's "GMA"), bytes.
  std::int64_t gma_bytes() const { return global_load_bytes + global_store_bytes; }

  /// Total arithmetic operations regardless of precision.
  std::int64_t total_ops() const { return flops + int_ops; }

  KernelStats& operator+=(const KernelStats& o);
  friend bool operator==(const KernelStats&, const KernelStats&) = default;
  friend KernelStats operator+(KernelStats a, const KernelStats& b) {
    a += b;
    return a;
  }

  std::string summary() const;
};

}  // namespace fcm::gpusim
