// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--build-dir DIR]
//
// Runs one workload (serve_warm, serve_cold, warp_profile, retrain) as a
// fixed-length, seeded op sequence from one client thread in a closed
// loop. The op count is fixed by --seconds and the workload's nominal
// rate, so every run with the same --seconds does identical work.
// Prints a header line, a detail line, and last one JSON result line:
// the end-to-end metrics untraced (--trace 0), the per-layer metrics
// traced (--trace 1). Fixtures and the store live in a run directory
// under the build directory, on a private tmpfs mount when the kernel
// allows one, and are deleted at exit. See perfbench/README.md.

#include <sched.h>
#include <signal.h>
#include <sys/mount.h>
#include <sys/personality.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "serve/protocol.hpp"

namespace {

using perfbench::Metrics;
using perfbench::Options;
using perfbench::Outcome;
using perfbench::Tracer;
using gpustatic::serve::JsonWriter;

struct Workload {
  const char* name;
  /// Nominal untraced ops per second; with --seconds it fixes the op
  /// count (at least kMinOps, so op_p90_ms has >= 10 samples above it).
  double ops_per_s;
  /// The op count is a multiple of this: the size of the workload's
  /// balanced input population, so every run holds the same mix.
  std::size_t granule;
  Outcome (*run)(const Options&, Tracer*);
};

constexpr std::size_t kMinOps = 100;

constexpr Workload kWorkloads[] = {
    {"serve_warm", 36, 16, perfbench::run_serve_warm},
    {"serve_cold", 240, 864, perfbench::run_serve_cold},
    {"warp_profile", 11, 96, perfbench::run_warp_profile},
    {"retrain", 4.8, 1, perfbench::run_retrain},
};

/// Every per-layer metric, as BENCHMARK.json lists it. A traced run
/// reports all of them; layers its workload never calls read 0.
constexpr std::pair<const char*, const char*> kLayers[] = {
    {"serve.parse_us", "us"},
    {"serve.render_us", "us"},
    {"core.tune_ms", "ms"},
    {"core.load_workload_ms", "ms"},
    {"tuner.store_load_ms", "ms"},
    {"tuner.store_scan_ms", "ms"},
    {"tuner.store_snapshot_ms", "ms"},
    {"tuner.static_prune_ms", "ms"},
    {"tuner.search_ms", "ms"},
    {"tuner.harvest_merge_ms", "ms"},
    {"tuner.puts_per_op", "count"},
    {"tuner.store_save_ms", "ms"},
    {"tuner.saves_per_op", "count"},
    {"tuner.save_bytes", "bytes"},
    {"codegen.compile_ms", "ms"},
    {"codegen.compiles_per_op", "count"},
    {"sim.analytic_eval_us", "us"},
    {"tuner.fresh_per_op", "count"},
    {"codegen.lower_ms", "ms"},
    {"sim.warp_run_ms", "ms"},
    {"sim.warp_issues_per_op", "count"},
    {"sim.warp_issues_per_s", "1/s"},
    {"dynamic.profile_ms", "ms"},
    {"dynamic.trace_overhead_ms", "ms"},
    {"core.retrain_ms", "ms"},
    {"learn.corpus_ms", "ms"},
    {"learn.rows", "count"},
    {"learn.fit_ms", "ms"},
    {"learn.model_save_ms", "ms"},
    {"learn.model_load_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.ops_per_s", "1/s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_warm|serve_cold|warp_profile|retrain --seed N "
               "--seconds S --trace 0|1 [--build-dir DIR]\n",
               why);
  std::exit(2);
}

/// The run directory: private to this process, on its own tmpfs mount
/// when a private mount namespace is available (so store saves never
/// wait on the disk), else a plain directory. Removed on destruction.
class RunDir {
 public:
  explicit RunDir(const std::string& path) : path_(path) {
    remove_stale(std::filesystem::path(path_).parent_path());
    std::filesystem::create_directories(path_);
    mounted_ = unshare(CLONE_NEWNS) == 0 &&
               mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) ==
                   0 &&
               mount("perfbench", path_.c_str(), "tmpfs", 0,
                     "size=1g,mode=0700") == 0;
  }
  ~RunDir() {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(path_, ec))
      std::filesystem::remove_all(entry.path(), ec);
    if (mounted_) umount2(path_.c_str(), MNT_DETACH);
    std::filesystem::remove(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Remove run directories left by killed runs (`<workload>-<pid>`
  /// whose pid no longer exists).
  static void remove_stale(const std::filesystem::path& runs) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(runs, ec)) {
      const std::string name = entry.path().filename().string();
      const long pid = std::atol(name.substr(name.rfind('-') + 1).c_str());
      if (pid > 0 && kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH)
        std::filesystem::remove_all(entry.path(), ec);
    }
  }
  /// Filesystem type of the store, as the header records it.
  [[nodiscard]] std::string filesystem() const {
    struct statfs info {};
    if (statfs(path_.c_str(), &info) != 0) return "unknown";
    constexpr long kTmpfsMagic = 0x01021994;
    if (info.f_type == kTmpfsMagic) return "tmpfs";
    char buf[32];
    std::snprintf(buf, sizeof buf, "disk(0x%lx)",
                  static_cast<unsigned long>(info.f_type));
    return buf;
  }

 private:
  std::string path_;
  bool mounted_ = false;
};

/// The result line's "metrics" object (JsonWriter is flat by design).
std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value +
           ",\"unit\":\"" + m.unit + "\"}";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  // Address-space randomization shifts heap and stack alignment from
  // process to process, which moves memory-bound timings by several
  // percent between otherwise identical runs: re-exec once without it.
  const int persona = personality(0xffffffff);
  char self[4096] = {};
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      readlink("/proc/self/exe", self, sizeof self - 1) > 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1)
    execv(self, argv);  // returns only on failure: run as is

  Options opts;
  std::string build_dir = ".bench_build";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") opts.workload = value;
      else if (arg == "--seed") opts.seed = std::stoull(value);
      else if (arg == "--seconds") opts.seconds = std::stod(value);
      else if (arg == "--trace") trace = std::stoi(value);
      else if (arg == "--build-dir") build_dir = value;
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  opts.trace = trace == 1;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (opts.workload == w.name) workload = &w;
  if (workload == nullptr) usage("unknown workload");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");
  const std::size_t granule = workload->granule;
  const auto nominal = static_cast<std::size_t>(std::llround(
      opts.seconds * workload->ops_per_s / static_cast<double>(granule)));
  opts.ops = granule * std::max((kMinOps + granule - 1) / granule, nominal);

  // Pin the simulator thread pool before anything reads it: one client,
  // one thread, so batches run inline on the timed thread and no worker
  // wakes from idle mid-op.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  setenv("GPUSTATIC_THREADS", "1", 1);

  const std::string run_path = build_dir + "/runs/" + opts.workload + "-" +
                               std::to_string(getpid());
  int rc = 0;
  try {
    RunDir dir(run_path);
    opts.work_dir = dir.path();

    JsonWriter header;
    header.field("perfbench", "header").field("workload", opts.workload);
    header.field("seed", static_cast<std::uint64_t>(opts.seed));
    header.field("ops", static_cast<std::uint64_t>(opts.ops));
    header.field("trace", opts.trace);
    header.field("nproc", static_cast<std::uint64_t>(nproc));
    header.field("pool_threads",
                 static_cast<std::uint64_t>(
                     gpustatic::ThreadPool::configured_threads()));
#ifdef __clang__
    header.field("compiler", "clang " __clang_version__);
#else
    header.field("compiler", "gcc " __VERSION__);
#endif
    header.field("build_type", PERFBENCH_BUILD_TYPE);
    header.field("store_fs", dir.filesystem());
    header.field("aslr", (personality(0xffffffff) & ADDR_NO_RANDOMIZE) == 0);
    header.field("client", "1 thread, closed loop");
    std::printf("%s\n", header.str().c_str());
    std::fflush(stdout);

    Tracer tracer;
    const perfbench::Clock::time_point start = perfbench::Clock::now();
    Outcome out = workload->run(opts, opts.trace ? &tracer : nullptr);
    const double wall_s = perfbench::ms_since(start) / 1000.0;

    Metrics metrics;
    if (!opts.trace) {
      double busy_ms = 0;
      for (double ms : out.op_ms) busy_ms += ms;
      metrics["setup_s"] = {perfbench::median(out.setup_s), "s"};
      const double ops = static_cast<double>(out.op_ms.size());
      metrics["ops_per_s"] = {busy_ms > 0 ? 1000.0 * ops / busy_ms : 0,
                              "1/s"};
      metrics["op_p50_ms"] = {perfbench::percentile(out.op_ms, 50), "ms"};
      metrics["op_p90_ms"] = {perfbench::percentile(out.op_ms, 90), "ms"};
      metrics["peak_rss_mb"] = {perfbench::peak_rss_mb(), "MB"};
      metrics["op_ok_frac"] = {
          out.attempted > 0
              ? static_cast<double>(out.attempted - out.failed) /
                    static_cast<double>(out.attempted)
              : 0,
          "ratio"};
      metrics["tuned_regret"] = {out.tuned_regret, "ratio"};
      metrics["model_spearman"] = {out.model_spearman, "ratio"};
    } else {
      for (const auto& [name, unit] : kLayers) {
        const auto it = out.layers.find(name);
        metrics[name] = {it == out.layers.end() ? 0.0 : it->second.value,
                         unit};
      }
      for (const auto& [name, m] : out.layers)
        if (metrics.find(name) == metrics.end())
          throw std::logic_error("unlisted layer metric " + name);
      std::filesystem::create_directories(build_dir + "/traces");
      tracer.write(build_dir + "/traces/" + opts.workload + "-seed" +
                   std::to_string(opts.seed) + ".tsv");
    }

    // Detail line: the quality figures in both modes (the self-check
    // compares traced against untraced) and the first failures.
    JsonWriter detail;
    detail.field("perfbench", "detail");
    detail.number_field("wall_s", wall_s);
    detail.number_field("tuned_regret", out.tuned_regret);
    detail.number_field("model_spearman", out.model_spearman);
    for (std::size_t i = 0; i < out.failures.size(); ++i)
      detail.field("failure_" + std::to_string(i), out.failures[i]);
    std::printf("%s\n", detail.str().c_str());

    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf(
        "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
        correct ? "true" : "false", out.attempted, out.failed,
        metrics_json(metrics).c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  return rc;
}
