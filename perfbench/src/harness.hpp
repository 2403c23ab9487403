#pragma once

// Shared plumbing for the perfbench workloads: run options, the
// per-run outcome every workload fills in, the in-memory span tracer
// used by traced runs, and small statistics helpers.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t ops = 0;     ///< fixed op count derived from `seconds`
  std::string work_dir;    ///< run-private scratch dir (fixtures, store)
};

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run produced. The untraced run fills the timing
/// and quality fields; the traced run fills `layers`.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> op_ms;    ///< per-op latency, in op order
  std::vector<double> setup_s;  ///< each set-up repetition
  double tuned_regret = 0;
  double model_spearman = 0;
  Metrics layers;
  std::vector<std::string> failures;  ///< first few, for the log

  /// Count one failed output check (never throws).
  void fail(std::string why);
};

/// Spans of a traced run, kept in memory and written out at exit. A
/// span's parent is the innermost span open when it began; self time is
/// its duration minus its direct children's.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::size_t op = 0;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::size_t index)
        : tracer_(&tracer), index_(index) {}
    ~Scope() { tracer_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  Tracer();

  /// Open a span named `name` (a string literal) for op `op`.
  [[nodiscard]] Scope span(const char* name, std::size_t op);

  /// Per-op totals of the self time (ms) of every span named `name`;
  /// ops that never opened such a span are absent.
  [[nodiscard]] std::map<std::size_t, double> self_ms_by_op(
      std::string_view name) const;

  /// Tab-separated dump: op, index, parent, name, start_us, end_us.
  void write(const std::string& path) const;

 private:
  void close(std::size_t index);
  [[nodiscard]] double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// The paper's four base kernels (Table IV), the kernels every workload
/// draws from.
[[nodiscard]] const std::vector<std::string>& kernels();

/// Median of the per-op values (0 when empty).
[[nodiscard]] double median_of(const std::map<std::size_t, double>& by_op);
/// Nearest-rank percentile (p in (0, 100]) of `values` (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
/// Geometric mean of strictly positive values (0 when empty).
[[nodiscard]] double geomean(const std::vector<double>& values);

/// A permutation of `population` repeated until it holds `count`
/// entries: every element appears floor or ceil(count / size) times, in
/// an order drawn from `seed`. Balancing the multiset keeps each run's
/// mix (and therefore its percentiles) independent of the seed, while
/// the seed still decides every input the program sees.
[[nodiscard]] std::vector<std::size_t> balanced_sequence(
    std::size_t population, std::size_t count, std::uint64_t seed);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Busy-spin for `ms` milliseconds. On the VMs this was tuned on, a vCPU
/// that has been idle runs at about half speed for the first ~300 ms of
/// work; every timed section starts after a spin so it never measures
/// that ramp.
void warm_up(double ms = 1000);

/// Run `build` in a forked child and wait for it; throws when the child
/// fails. Fixtures are built this way so their memory never counts
/// toward the workload's own peak RSS. Call before any thread starts.
void run_in_child(const std::function<void()>& build);

// Workloads: serve.cpp (serve_warm, serve_cold) and offline.cpp
// (warp_profile, retrain).
[[nodiscard]] Outcome run_serve_warm(const Options& opts, Tracer* tracer);
[[nodiscard]] Outcome run_serve_cold(const Options& opts, Tracer* tracer);
[[nodiscard]] Outcome run_warp_profile(const Options& opts, Tracer* tracer);
[[nodiscard]] Outcome run_retrain(const Options& opts, Tracer* tracer);

}  // namespace perfbench
