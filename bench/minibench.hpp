// Minimal built-in replacement for the subset of google-benchmark that
// bench/micro_kernels.cpp uses, so the target builds and runs even when the
// library is not installed (CMake defines FCM_HAVE_GOOGLE_BENCHMARK when it
// is, and micro_kernels.cpp includes the real <benchmark/benchmark.h>
// instead). Implements: BENCHMARK(fn)->Arg(n)->UseRealTime() registration
// chains with Repetitions(n), ComputeStatistics(name, fn),
// ReportAggregatesOnly() and Apply(fn), `for (auto _ : state)` iteration
// with adaptive iteration counts, state.range(0), state.iterations(),
// state.SetItemsProcessed and DoNotOptimize. Timing is wall-clock around the
// measured loop; output is one "name/arg  time/iter  items/s" line per
// repetition (unless aggregates only) and one "name/arg_<stat>" line per
// statistic over the repetitions' per-iteration times.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace benchmark {

class State {
 public:
  State(std::int64_t max_iterations, std::vector<std::int64_t> args)
      : max_iterations_(max_iterations), args_(std::move(args)) {}

  /// Counts iterations and stops the wall clock when the loop finishes.
  class iterator {
   public:
    explicit iterator(State* s) : state_(s) {}  // begin
    iterator() = default;                       // end sentinel
    bool operator!=(const iterator&) const {
      if (state_->iterations_done_ < state_->max_iterations_) return true;
      state_->stop();
      return false;
    }
    iterator& operator++() {
      ++state_->iterations_done_;
      return *this;
    }
    /// Non-trivial ctor and dtor so `for (auto _ : state)` does not warn
    /// about an unused/set-but-unused variable under -Werror.
    struct Ignored {
      Ignored() {}
      ~Ignored() {}
    };
    Ignored operator*() const { return Ignored{}; }

   private:
    State* state_ = nullptr;
  };

  iterator begin() {
    start_ = std::chrono::steady_clock::now();
    running_ = true;
    return iterator(this);
  }
  iterator end() { return iterator(); }

  std::int64_t range(std::size_t i) const { return args_.at(i); }
  std::int64_t iterations() const { return iterations_done_; }
  void SetItemsProcessed(std::int64_t n) { items_processed_ = n; }

  std::int64_t items_processed() const { return items_processed_; }
  double elapsed_s() const { return elapsed_s_; }

 private:
  void stop() {
    if (!running_) return;
    running_ = false;
    elapsed_s_ = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  }

  std::int64_t max_iterations_ = 1;
  std::int64_t iterations_done_ = 0;
  std::vector<std::int64_t> args_;
  std::int64_t items_processed_ = 0;
  std::chrono::steady_clock::time_point start_{};
  bool running_ = false;
  double elapsed_s_ = 0.0;
};

/// Compiler barrier: keep `value` (and everything feeding it) alive.
template <typename T>
inline void DoNotOptimize(T const& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  static volatile const void* sink;
  sink = &value;
  (void)sink;
#endif
}

/// A statistic over the repetitions' per-iteration times, e.g. their min.
using StatisticsFunc = double(const std::vector<double>&);

namespace detail {

class Registrar;

struct Case {
  std::string name;
  void (*fn)(State&);
  std::vector<std::int64_t> args;  // empty: run once with no Arg
  const Registrar* owner;          // the BENCHMARK chain's settings
};

inline std::vector<Case>& registry() {
  static std::vector<Case> cases;
  return cases;
}

/// One BENCHMARK(fn) statement; each ->Arg(n) in the chain appended to the
/// macro adds one registered case (mirroring google-benchmark's API shape,
/// where the chain is part of the registering initializer expression).
class Registrar {
 public:
  struct Statistic {
    std::string name;
    StatisticsFunc* fn;
  };

  Registrar(const char* name, void (*fn)(State&)) : name_(name), fn_(fn) {
    index_ = registry().size();
    registry().push_back(Case{name_, fn_, {}, this});
  }
  Registrar* Arg(std::int64_t a) {
    Case& base = registry()[index_];
    if (base.args.empty() && !argged_) {
      base.args.push_back(a);
    } else {
      registry().push_back(Case{name_, fn_, {a}, this});
    }
    argged_ = true;
    return this;
  }
  /// No-op: this harness always times wall-clock.
  Registrar* UseRealTime() { return this; }
  Registrar* Repetitions(int n) {
    repetitions_ = std::max(1, n);
    return this;
  }
  Registrar* ComputeStatistics(const std::string& name, StatisticsFunc* fn) {
    statistics_.push_back(Statistic{name, fn});
    return this;
  }
  Registrar* ReportAggregatesOnly(bool value = true) {
    aggregates_only_ = value;
    return this;
  }
  Registrar* Apply(void (*fn)(Registrar*)) {
    fn(this);
    return this;
  }

  int repetitions() const { return repetitions_; }
  const std::vector<Statistic>& statistics() const { return statistics_; }
  bool aggregates_only() const { return aggregates_only_; }

 private:
  std::string name_;
  void (*fn_)(State&);
  std::size_t index_ = 0;
  bool argged_ = false;
  int repetitions_ = 1;
  std::vector<Statistic> statistics_;
  bool aggregates_only_ = false;
};

/// The BENCHMARK macro's initializer — leaked on purpose, like the real
/// library's RegisterBenchmark: registration objects live for the process.
inline Registrar* make_registrar(const char* name, void (*fn)(State&)) {
  return new Registrar(name, fn);
}

inline void print_line(const std::string& label, double per_iter_s,
                       double items_per_iter, std::int64_t iters) {
  if (items_per_iter > 0) {
    std::printf("%-28s %10.1f us/iter %12.1f Mitems/s  (%lld iters)\n",
                label.c_str(), per_iter_s * 1e6,
                items_per_iter / per_iter_s / 1e6,
                static_cast<long long>(iters));
  } else {
    std::printf("%-28s %10.1f us/iter  (%lld iters)\n", label.c_str(),
                per_iter_s * 1e6, static_cast<long long>(iters));
  }
}

/// Run one case: a 1-iteration calibration, then each repetition's measured
/// run sized to ~0.2 s wall (capped) so fast and slow kernels both get stable
/// numbers, then the chain's statistics over the repetitions.
inline void run_case(const Case& c) {
  State calib(1, c.args);
  c.fn(calib);
  const double per_iter = calib.elapsed_s() > 0 ? calib.elapsed_s() : 1e-9;
  const auto iters = static_cast<std::int64_t>(
      std::min(1e4, std::max(1.0, 0.2 / per_iter)));

  std::string label = c.name;
  for (std::int64_t a : c.args) label += "/" + std::to_string(a);
  std::vector<double> times;
  double items_per_iter = 0.0;
  for (int r = 0; r < c.owner->repetitions(); ++r) {
    State state(iters, c.args);
    c.fn(state);
    const double n = static_cast<double>(state.iterations());
    times.push_back(state.elapsed_s() / n);
    items_per_iter = static_cast<double>(state.items_processed()) / n;
    if (!c.owner->aggregates_only() || c.owner->statistics().empty()) {
      print_line(label, times.back(), items_per_iter, iters);
    }
  }
  for (const auto& st : c.owner->statistics()) {
    print_line(label + "_" + st.name, st.fn(times), items_per_iter, iters);
  }
}

inline int run_all() {
  std::printf("minibench: google-benchmark not available — built-in timer "
              "harness (%zu cases)\n",
              registry().size());
  for (const auto& c : registry()) run_case(c);
  return 0;
}

}  // namespace detail

namespace internal {
using Benchmark = detail::Registrar;
}  // namespace internal

}  // namespace benchmark

#define FCM_MINIBENCH_CONCAT2(a, b) a##b
#define FCM_MINIBENCH_CONCAT(a, b) FCM_MINIBENCH_CONCAT2(a, b)

#define BENCHMARK(fn)                                              \
  static ::benchmark::detail::Registrar* FCM_MINIBENCH_CONCAT(     \
      fcm_minibench_registrar_, __LINE__) =                        \
      ::benchmark::detail::make_registrar(#fn, fn)

#define BENCHMARK_MAIN() \
  int main() { return ::benchmark::detail::run_all(); }
