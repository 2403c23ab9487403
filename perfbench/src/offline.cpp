// The two offline workloads, each one closed-loop client calling the
// library directly:
//
//   warp_profile  dynamic::profile_workload over seeded (kernel, GPU,
//                 launch) triples at paper-leaning sizes: the only
//                 workload that runs the warp simulator and the
//                 reuse-distance analyzer.
//   retrain       core::TuningService::retrain over a ~3,200-record
//                 store: the only workload that runs the ml/ CART code.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "codegen/backend.hpp"
#include "core/service.hpp"
#include "dynamic/profile.hpp"
#include "harness.hpp"
#include "learn/corpus.hpp"
#include "learn/model.hpp"
#include "learn/trainer.hpp"
#include "sim/machine.hpp"
#include "sim/runner.hpp"
#include "tuner/fleet.hpp"
#include "tuner/space.hpp"
#include "tuner/store.hpp"

namespace perfbench {

namespace {

namespace core = gpustatic::core;
namespace codegen = gpustatic::codegen;
namespace dynamic = gpustatic::dynamic;
namespace learn = gpustatic::learn;
namespace sim = gpustatic::sim;
namespace tuner = gpustatic::tuner;
namespace arch = gpustatic::arch;

/// Paper-leaning profile sizes: 512^2 work items for the matrix
/// kernels, a 64^3 grid for ex14fj.
std::int64_t profile_size(const std::string& kernel) {
  return kernel == "ex14fj" ? 64 : 512;
}

/// Launches every Table I GPU accepts for every kernel.
std::vector<codegen::TuningParams> launches() {
  auto p = [](int tc, int bc, int uif, int pl, bool fm) {
    codegen::TuningParams t;
    t.threads_per_block = tc;
    t.block_count = bc;
    t.unroll = uif;
    t.l1_pref_kb = pl;
    t.fast_math = fm;
    return t;
  };
  return {p(128, 48, 1, 48, false), p(256, 96, 2, 16, false),
          p(512, 24, 1, 48, true),  p(64, 192, 4, 16, false),
          p(1024, 48, 1, 48, false), p(32, 96, 2, 48, true)};
}

struct Triple {
  std::size_t kernel = 0;
  std::size_t gpu = 0;
  std::size_t launch = 0;
};

}  // namespace

// ---- warp_profile -----------------------------------------------------

Outcome run_warp_profile(const Options& opts, Tracer* tracer) {
  Outcome out;
  const auto gpus = arch::all_gpus();
  const std::vector<codegen::TuningParams> shapes = launches();
  std::vector<Triple> population;
  for (std::size_t k = 0; k < kernels().size(); ++k)
    for (std::size_t g = 0; g < gpus.size(); ++g)
      for (std::size_t l = 0; l < shapes.size(); ++l)
        population.push_back({k, g, l});
  const std::vector<std::size_t> order =
      balanced_sequence(population.size(), opts.ops, opts.seed);

  // Set-up: load the workloads and build the machine models, then one
  // small first-touch profile per kernel.
  const std::shared_ptr<const codegen::Backend> backend =
      codegen::BackendRegistry::instance().get(codegen::kDefaultBackend);
  std::vector<gpustatic::dsl::WorkloadDesc> workloads;
  std::map<std::pair<std::size_t, int>, sim::MachineModel> machines;
  constexpr int kSetups = 11;
  warm_up();
  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point start = Clock::now();
    workloads.clear();
    machines.clear();
    for (const std::string& k : kernels())
      workloads.push_back(core::load_workload(k, profile_size(k)));
    for (std::size_t g = 0; g < gpus.size(); ++g)
      for (int pl : {16, 48})
        machines.emplace(std::pair{g, pl},
                         sim::MachineModel::from(gpus[g], pl));
    for (const std::string& k : kernels()) {
      const auto small = core::load_workload(k, k == "ex14fj" ? 16 : 128);
      const codegen::TuningParams base;
      const auto lw = backend->lower(small, gpus[0], base);
      (void)dynamic::profile_workload(
          lw, small, machines.at({0, base.l1_pref_kb}));
    }
    out.setup_s.push_back(ms_since(start) / 1000.0);
  }

  std::vector<sim::Measurement> measured(order.size());
  std::vector<double> warp_issues;
  double traced_s = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Triple& t = population[order[i]];
    const codegen::TuningParams& params = shapes[t.launch];
    const gpustatic::dsl::WorkloadDesc& wl = workloads[t.kernel];
    const sim::MachineModel& machine =
        machines.at({t.gpu, params.l1_pref_kb});
    const Clock::time_point start = Clock::now();
    if (tracer == nullptr) {
      const auto lw = backend->lower(wl, gpus[t.gpu], params);
      measured[i] = dynamic::profile_workload(lw, wl, machine).measurement;
      out.op_ms.push_back(ms_since(start));
      continue;
    }
    Tracer& tr = *tracer;
    const auto root = tr.span("op", i);
    std::unique_ptr<codegen::LoweredWorkload> lw;
    {
      const auto s = tr.span("codegen.lower", i);
      lw = std::make_unique<codegen::LoweredWorkload>(
          backend->lower(wl, gpus[t.gpu], params));
    }
    {
      const auto s = tr.span("dynamic.profile", i);
      measured[i] = dynamic::profile_workload(*lw, wl, machine).measurement;
    }
    sim::RunOptions warp;
    warp.engine = sim::Engine::Warp;
    sim::Measurement replay;
    {
      const auto s = tr.span("sim.warp_run", i);
      replay = sim::run_workload(*lw, wl, machine, warp);
    }
    warp_issues.push_back(replay.counts.total_issues);
    traced_s += ms_since(start) / 1000.0;
  }

  // Output checks: every profile is a valid warp measurement that
  // repeats exactly for a repeated triple.
  std::map<std::size_t, double> first_time;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const sim::Measurement& m = measured[i];
    if (!m.valid || !(m.base_time_ms > 0) || !(m.counts.total_issues > 0)) {
      out.fail("op " + std::to_string(i) + ": invalid profile " + m.error);
      continue;
    }
    const auto [it, first] = first_time.emplace(order[i], m.base_time_ms);
    if (!first && it->second != m.base_time_ms)
      out.fail("op " + std::to_string(i) + ": profile not repeatable");
  }
  out.attempted = order.size();

  // Static tuning judged by the warp engine: per (kernel, GPU), the
  // analytic model ranks the launches; regret is the warp time of its
  // pick over the best warp time, and Spearman compares the rankings.
  std::vector<double> regrets;
  double spearman_sum = 0;
  std::size_t groups = 0;
  for (std::size_t k = 0; k < kernels().size(); ++k)
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      std::vector<double> analytic;
      std::vector<double> warp;
      for (std::size_t l = 0; l < shapes.size(); ++l) {
        const std::size_t idx = (k * gpus.size() + g) * shapes.size() + l;
        const auto it = first_time.find(idx);
        if (it == first_time.end()) continue;
        const auto lw = backend->lower(workloads[k], gpus[g], shapes[l]);
        analytic.push_back(
            sim::run_workload(lw, workloads[k],
                              machines.at({g, shapes[l].l1_pref_kb}))
                .base_time_ms);
        warp.push_back(it->second);
      }
      if (warp.size() < 2) continue;
      std::size_t pick = 0;
      double best = warp[0];
      for (std::size_t j = 0; j < warp.size(); ++j) {
        if (analytic[j] < analytic[pick]) pick = j;
        best = std::min(best, warp[j]);
      }
      regrets.push_back(warp[pick] / best);
      spearman_sum += learn::spearman_rank_correlation(analytic, warp);
      ++groups;
    }
  out.tuned_regret = geomean(regrets);
  out.model_spearman =
      groups > 0 ? spearman_sum / static_cast<double>(groups) : 0;

  if (tracer != nullptr) {
    const Tracer& tr = *tracer;
    Metrics& m = out.layers;
    m["codegen.lower_ms"] = {median_of(tr.self_ms_by_op("codegen.lower")),
                             "ms"};
    const auto warp_ms = tr.self_ms_by_op("sim.warp_run");
    const auto profile_ms = tr.self_ms_by_op("dynamic.profile");
    m["sim.warp_run_ms"] = {median_of(warp_ms), "ms"};
    m["dynamic.profile_ms"] = {median_of(profile_ms), "ms"};
    std::map<std::size_t, double> overhead;
    double warp_total_s = 0;
    for (const auto& [op, ms] : profile_ms) {
      overhead[op] = ms - warp_ms.at(op);
      warp_total_s += warp_ms.at(op) / 1000.0;
    }
    m["dynamic.trace_overhead_ms"] = {median_of(overhead), "ms"};
    double issues = 0;
    for (double x : warp_issues) issues += x;
    m["sim.warp_issues_per_op"] = {
        issues / static_cast<double>(order.size()), "count"};
    m["sim.warp_issues_per_s"] = {
        warp_total_s > 0 ? issues / warp_total_s : 0, "1/s"};
    m["trace.ops_per_s"] = {
        traced_s > 0 ? static_cast<double>(order.size()) / traced_s : 0,
        "1/s"};
  }
  return out;
}

// ---- retrain ----------------------------------------------------------

namespace {

/// Measured points per (kernel, GPU) context in the training store.
constexpr std::size_t kTrainPoints = 200;

learn::TrainOptions train_options(std::uint64_t seed) {
  learn::TrainOptions t;
  t.corpus.seed = seed;
  t.corpus.load_workload = [](const std::string& kernel, std::int64_t n) {
    return core::load_workload(kernel, n);
  };
  return t;
}

}  // namespace

Outcome run_retrain(const Options& opts, Tracer* tracer) {
  Outcome out;
  const std::string store_path = opts.work_dir + "/train_store.txt";
  const std::string model_path = opts.work_dir + "/model.txt";
  run_in_child([&] {
    // A seeded random search per (kernel, GPU) at the default size: the
    // store a fleet leaves behind, ~3,200 measured records.
    tuner::TuningStore store;
    for (const std::string& k : kernels())
      for (const arch::GpuSpec& g : arch::all_gpus()) {
        tuner::FleetJob job;
        job.kernel = k;
        job.n = core::FleetSession::default_size(k);
        job.workload = core::load_workload(k, job.n);
        job.gpu = &g;
        job.space = tuner::paper_space();
        tuner::FleetTuneOptions topts;
        topts.method = "random";
        topts.search.budget = kTrainPoints;
        topts.search.seed = opts.seed;
        std::vector<tuner::StoreRecord> harvest;
        const auto report = tuner::tune_job(job, store, topts, &harvest);
        if (!report.ok()) throw std::runtime_error(report.error);
        for (tuner::StoreRecord& r : harvest) store.put(std::move(r));
      }
    store.save(store_path);
    learn::train_cost_model(store, train_options(opts.seed)).model.save(
        model_path);
  });

  // Set-up: daemon-style start on the store and the saved model.
  core::TuningService::Config config;
  config.store_path = store_path;
  config.model_path = model_path;
  std::unique_ptr<core::TuningService> service;
  constexpr int kSetups = 21;
  warm_up();
  for (int rep = 0; rep < kSetups; ++rep) {
    service.reset();
    const Clock::time_point start = Clock::now();
    service = std::make_unique<core::TuningService>(config);
    out.setup_s.push_back(ms_since(start) / 1000.0);
  }
  if (!service->model_info().loaded)
    throw std::runtime_error("retrain set-up: model did not load");

  std::mt19937_64 rng(opts.seed);
  std::vector<std::uint64_t> seeds(opts.ops);
  for (std::uint64_t& s : seeds) s = rng() % 100000;

  std::vector<core::TuningService::RetrainResult> results;
  results.reserve(seeds.size());
  std::vector<double> rows;
  double traced_s = 0;
  tuner::TuningStore replay_store;
  if (tracer != nullptr) replay_store = tuner::TuningStore::load(store_path);
  const std::string replay_model = opts.work_dir + "/replay_model.txt";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Clock::time_point start = Clock::now();
    if (tracer == nullptr) {
      results.push_back(service->retrain(train_options(seeds[i])));
      out.op_ms.push_back(ms_since(start));
      continue;
    }
    Tracer& tr = *tracer;
    const auto root = tr.span("op", i);
    {
      const auto s = tr.span("core.retrain", i);
      results.push_back(service->retrain(train_options(seeds[i])));
    }
    const auto replay = tr.span("replay", i);
    {
      // retrain() trains on a snapshot of the service's store.
      const auto s = tr.span("tuner.store_snapshot", i);
      tuner::TuningStore snapshot;
      for (const tuner::StoreRecord& r : replay_store.records())
        snapshot.put(r);
    }
    learn::Corpus corpus;
    {
      const auto s = tr.span("learn.corpus", i);
      corpus = learn::build_corpus(replay_store,
                                   train_options(seeds[i]).corpus);
    }
    rows.push_back(static_cast<double>(corpus.rows.size()));
    learn::TrainReport report;
    {
      const auto s = tr.span("learn.train", i);
      report = learn::train_cost_model(replay_store, train_options(seeds[i]));
    }
    {
      const auto s = tr.span("learn.model_save", i);
      report.model.save(replay_model);
    }
    {
      const auto s = tr.span("learn.model_load", i);
      (void)learn::CostModel::load(replay_model);
    }
    traced_s += ms_since(start) / 1000.0;
  }

  // Output checks: every retrain succeeded on real rows, and sampled
  // ops re-fit off-service to the same held-out Spearman.
  std::vector<double> regrets;
  double spearman_sum = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (!r.ok() || r.trained_rows == 0 || r.validation_rows == 0 ||
        !std::isfinite(r.mean_spearman)) {
      out.fail("op " + std::to_string(i) + ": retrain failed " + r.error);
      continue;
    }
    spearman_sum += r.mean_spearman;
    if (i % 16 == 0) {
      const learn::TrainReport report = learn::train_cost_model(
          tuner::TuningStore::load(store_path), train_options(seeds[i]));
      if (report.mean_spearman != r.mean_spearman) {
        out.fail("op " + std::to_string(i) + ": re-fit Spearman differs");
        continue;
      }
      regrets.push_back(1 + report.mean_top1_regret);
    }
  }
  out.attempted = results.size();
  const std::size_t ok = results.size() - out.failed;
  out.model_spearman = ok > 0 ? spearman_sum / static_cast<double>(ok) : 0;
  out.tuned_regret = geomean(regrets);

  if (tracer != nullptr) {
    const Tracer& tr = *tracer;
    Metrics& m = out.layers;
    const auto corpus_ms = tr.self_ms_by_op("learn.corpus");
    const auto train_ms = tr.self_ms_by_op("learn.train");
    std::map<std::size_t, double> fit;
    for (const auto& [op, ms] : train_ms)
      fit[op] = std::max(0.0, ms - corpus_ms.at(op));
    m["core.retrain_ms"] = {median_of(tr.self_ms_by_op("core.retrain")),
                            "ms"};
    m["learn.corpus_ms"] = {median_of(corpus_ms), "ms"};
    m["learn.fit_ms"] = {median_of(fit), "ms"};
    m["learn.model_save_ms"] = {
        median_of(tr.self_ms_by_op("learn.model_save")), "ms"};
    m["learn.model_load_ms"] = {
        median_of(tr.self_ms_by_op("learn.model_load")), "ms"};
    m["tuner.store_snapshot_ms"] = {
        median_of(tr.self_ms_by_op("tuner.store_snapshot")), "ms"};
    // Coverage: the replayed calls retrain() makes (snapshot, train,
    // save) against the real call.
    double replayed = 0;
    for (const char* name :
         {"tuner.store_snapshot", "learn.train", "learn.model_save"})
      for (const auto& [op, ms] : tr.self_ms_by_op(name)) replayed += ms;
    double real = 0;
    for (const auto& [op, ms] : tr.self_ms_by_op("core.retrain")) real += ms;
    m["trace.coverage"] = {real > 0 ? replayed / real : 0, "ratio"};
    double total_rows = 0;
    for (double r : rows) total_rows += r;
    m["learn.rows"] = {total_rows / static_cast<double>(rows.size()),
                       "count"};
    m["trace.ops_per_s"] = {
        traced_s > 0 ? static_cast<double>(results.size()) / traced_s : 0,
        "1/s"};
  }
  return out;
}

}  // namespace perfbench
