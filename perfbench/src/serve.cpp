// The two serving workloads. Both drive an in-process serve::Server from
// one client thread in a closed loop: the next request line is sent only
// after the previous response came back.
//
//   serve_warm  a restarted daemon answers `rule` tunes from a
//               paper-size store (exhaustive sweeps of the 5120-point
//               space for 4 kernels x 4 GPUs); every answer is warm.
//   serve_cold  every request is a first-seen (kernel, GPU, n) context,
//               so each one compiles, evaluates fresh points and runs a
//               search; the in-memory store is dropped with a server
//               restart whenever the distinct contexts run out.
//
// The traced run sends the same lines through the calls handle_line
// composes (parse_request, TuningService::tune, render_tune_response)
// and then replays the inner calls of each tune on the op's own inputs
// against the benchmark's own store mirror and SimContexts.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "codegen/cache.hpp"
#include "core/service.hpp"
#include "harness.hpp"
#include "learn/trainer.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/context.hpp"
#include "tuner/fleet.hpp"
#include "tuner/space.hpp"
#include "tuner/static_search.hpp"
#include "tuner/store.hpp"

namespace perfbench {

namespace {

namespace serve = gpustatic::serve;
namespace tuner = gpustatic::tuner;
namespace core = gpustatic::core;
namespace sim = gpustatic::sim;
namespace codegen = gpustatic::codegen;
namespace arch = gpustatic::arch;

std::vector<std::string> gpu_names() {
  std::vector<std::string> out;
  for (const arch::GpuSpec& g : arch::all_gpus()) out.push_back(g.name);
  return out;
}

struct Context {
  std::string kernel;
  std::string gpu;
  std::int64_t n = 0;
  [[nodiscard]] std::string key() const {
    return kernel + ' ' + gpu + ' ' + std::to_string(n);
  }
};

/// Every (kernel, GPU) at the kernel's default size: the store fixture.
std::vector<Context> default_contexts() {
  std::vector<Context> out;
  for (const std::string& k : kernels())
    for (const std::string& g : gpu_names())
      out.push_back({k, g, core::FleetSession::default_size(k)});
  return out;
}

/// Power-of-two sizes the codegen accepts for every kernel; ex14fj runs
/// on an n^3 grid, so its sizes are the cube roots of the others' span.
std::vector<std::int64_t> cold_sizes(const std::string& kernel) {
  if (kernel == "ex14fj") return {8, 16, 32, 64, 128, 256};
  return {128, 256, 512, 1024, 2048, 4096};
}

std::vector<Context> cold_contexts() {
  std::vector<Context> out;
  for (const std::string& k : kernels())
    for (const std::string& g : gpu_names())
      for (std::int64_t n : cold_sizes(k)) out.push_back({k, g, n});
  return out;
}

struct Request {
  Context ctx;
  std::string method;
  std::uint64_t seed = 0;
  std::size_t search_budget = 0;  ///< 0 = server default
  std::string line;
};

std::string render_line(std::size_t id, const Request& r) {
  serve::JsonWriter w;
  w.field("op", "tune").field("id", static_cast<std::uint64_t>(id));
  w.field("kernel", r.ctx.kernel).field("gpu", r.ctx.gpu);
  w.field("n", static_cast<std::int64_t>(r.ctx.n));
  w.field("method", r.method).field("seed", r.seed);
  if (r.search_budget > 0)
    w.field("search_budget", static_cast<std::uint64_t>(r.search_budget));
  w.field("engine", "analytic").field("analytic", "classic");
  return w.str();
}

/// The full-space optimum of one context under the serving engine: an
/// exhaustive analytic sweep, plus its harvest when `harvest` is set.
double sweep_optimum(const Context& c,
                     std::vector<tuner::StoreRecord>* harvest) {
  tuner::FleetJob job;
  job.kernel = c.kernel;
  job.n = c.n;
  job.workload = core::load_workload(c.kernel, c.n);
  job.gpu = &arch::gpu(c.gpu);
  job.space = tuner::paper_space();
  tuner::FleetTuneOptions opts;
  opts.method = "exhaustive";
  const tuner::FleetJobReport report =
      tuner::tune_job(job, tuner::TuningStore{}, opts, harvest);
  if (!report.ok())
    throw std::runtime_error("sweep " + c.key() + ": " + report.error);
  return report.outcome.search.best_time;
}

void write_optima(const std::string& path,
                  const std::map<std::string, double>& optima) {
  std::ofstream out(path);
  for (const auto& [key, ms] : optima) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms);
    out << key << '\t' << buf << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, double> read_optima(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    out[line.substr(0, tab)] = std::stod(line.substr(tab + 1));
  }
  return out;
}

/// Inverse of TuningParams::to_string ("TC=.. BC=.. UIF=.. PL=.. SC=..
/// CFLAGS=''").
codegen::TuningParams parse_params(const std::string& text) {
  codegen::TuningParams p;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "CFLAGS") {
      p.fast_math = value != "''";
      continue;
    }
    const int v = std::stoi(value);
    if (key == "TC") p.threads_per_block = v;
    else if (key == "BC") p.block_count = v;
    else if (key == "UIF") p.unroll = v;
    else if (key == "PL") p.l1_pref_kb = v;
    else if (key == "SC") p.stream_chunk = v;
  }
  return p;
}

/// Response fields the output checks read.
struct Reply {
  std::string status;
  std::string error;
  std::string best;
  double time_ms = 0;
  double fresh = 0;
  double compiles = 0;
};

Reply parse_reply(const std::string& line) {
  Reply r;
  const serve::JsonObject obj = serve::parse_json_object(line);
  auto text = [&](const char* k) {
    const auto it = obj.find(k);
    return it == obj.end() ? std::string() : it->second.string;
  };
  auto number = [&](const char* k) {
    const auto it = obj.find(k);
    return it == obj.end() ? -1.0 : it->second.number;
  };
  r.status = text("status");
  r.error = text("error");
  r.best = text("best");
  r.time_ms = number("time_ms");
  r.fresh = number("fresh");
  r.compiles = number("compiles");
  return r;
}

/// One sampled op's re-measurement every this many ops.
constexpr std::size_t kRemeasureEvery = 16;

/// Output checks over every response; fills the quality metrics.
void check_replies(const std::vector<Request>& requests,
                   const std::vector<std::string>& responses, bool warm,
                   const std::map<std::string, double>& optima,
                   Outcome& out) {
  std::vector<double> ratios;
  std::vector<double> returned;
  std::vector<double> optimal;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Request& q = requests[i];
    Reply r;
    try {
      r = parse_reply(responses[i]);
    } catch (const std::exception&) {
      out.fail("op " + std::to_string(i) + ": unparsable response");
      continue;
    }
    if (r.status != "ok") {
      out.fail("op " + std::to_string(i) + ": " + r.status + " " + r.error);
      continue;
    }
    if (warm && (r.fresh != 0 || r.compiles != 0)) {
      out.fail("op " + std::to_string(i) + ": warm answer not warm");
      continue;
    }
    const double optimum = optima.at(q.ctx.key());
    if (!(r.time_ms >= optimum * (1 - 1e-12))) {
      out.fail("op " + std::to_string(i) + ": beats the full-space optimum");
      continue;
    }
    if (i % kRemeasureEvery == 0) {
      sim::SimContext fresh(core::load_workload(q.ctx.kernel, q.ctx.n),
                            arch::gpu(q.ctx.gpu),
                            serve::parse_request(q.line).tune.run);
      const sim::Measurement m = fresh.measure(parse_params(r.best));
      if (!m.valid || m.trial_time_ms != r.time_ms) {
        out.fail("op " + std::to_string(i) + ": re-measured time differs");
        continue;
      }
    }
    ratios.push_back(r.time_ms / optimum);
    returned.push_back(r.time_ms);
    optimal.push_back(optimum);
  }
  out.tuned_regret = geomean(ratios);
  out.model_spearman =
      gpustatic::learn::spearman_rank_correlation(returned, optimal);
}

/// The benchmark's own copy of the service state a tune touches, for
/// replaying the inner calls of each traced op.
struct Mirror {
  tuner::TuningStore store;
  std::string save_path;  ///< empty = in-memory (no periodic save)
  std::size_t save_every = 8;
  std::size_t writes = 0;
  std::map<std::string, std::shared_ptr<sim::SimContext>> contexts;
};

/// Work counts of a traced serving run, summed over its ops.
struct Totals {
  double puts = 0;      ///< harvest upserts
  double fresh = 0;     ///< fresh evaluations the service reported
  double compiles = 0;  ///< compiles the service reported
  double evals = 0;     ///< replayed evaluations
};

/// Replay one tune's inner calls on its own inputs, each in a span.
void replay_tune(Tracer& tr, std::size_t op, const Request& q,
                 const core::TuneRequest& request, Mirror& mirror,
                 Totals& totals) {
  const auto replay = tr.span("replay", op);
  tuner::FleetJob job;
  job.kernel = q.ctx.kernel;
  job.n = q.ctx.n;
  {
    const auto s = tr.span("core.load_workload", op);
    job.workload = core::load_workload(q.ctx.kernel, q.ctx.n);
  }
  job.gpu = &arch::gpu(q.ctx.gpu);
  job.space = tuner::paper_space();

  std::vector<const tuner::StoreRecord*> scanned;
  {
    const auto s = tr.span("tuner.store_scan", op);
    scanned = mirror.store.context(job.kernel, job.gpu->name, job.n);
  }
  tuner::TuningStore warm;
  {
    const auto s = tr.span("tuner.store_snapshot", op);
    for (const tuner::StoreRecord* r : scanned) warm.put(*r);
  }
  {
    const auto s = tr.span("tuner.static_prune", op);
    (void)tuner::static_prune(job.space, *job.gpu, job.workload);
  }

  std::shared_ptr<sim::SimContext>& context = mirror.contexts[q.ctx.key()];
  if (context == nullptr)
    context = std::make_shared<sim::SimContext>(job.workload, *job.gpu,
                                                request.run);
  tuner::FleetTuneOptions opts;
  opts.method = request.method;
  opts.search = request.search;
  opts.hybrid = request.hybrid;
  opts.run = request.run;
  std::vector<tuner::StoreRecord> harvest;
  tuner::FleetJobReport report;
  {
    const auto s = tr.span("tuner.tune_job", op);
    report = tuner::tune_job(job, warm, opts, &harvest, context);
  }

  if (report.fresh_evaluations > 0) {
    // The compiles and fresh evaluations tune_job made, replayed: one
    // lowering per codegen key on a fresh cache, then one measurement
    // per fresh point on the (now compiled) context.
    codegen::CompilationCache cache(job.workload, *job.gpu);
    std::set<codegen::CodegenKey> keys;
    {
      const auto s = tr.span("codegen.compile", op);
      for (const tuner::StoreRecord& r : harvest) {
        if (!keys.insert(codegen::CodegenKey::of(r.variant.params)).second)
          continue;
        try {
          (void)cache.lower(r.variant.params);
        } catch (const std::exception&) {
          // Unlaunchable variants fail validation here exactly as in the
          // search; the attempt is still the compile it made.
        }
      }
    }
    const auto s = tr.span("sim.analytic_eval", op);
    for (const tuner::StoreRecord& r : harvest) {
      if (warm.find(job.kernel, job.gpu->name, job.n, r.variant.params))
        continue;  // answered from the store, not evaluated
      (void)context->measure(r.variant.params);
      ++totals.evals;
    }
  }

  if (report.fresh_evaluations > 0) {
    // The search loop alone: tune_job again with its own harvest
    // preloaded, so every evaluation is a memo hit and nothing compiles.
    tuner::TuningStore learned;
    for (const tuner::StoreRecord& r : harvest) learned.put(r);
    const auto s = tr.span("tuner.search_warm", op);
    (void)tuner::tune_job(job, learned, opts, nullptr, context);
  }

  {
    const auto s = tr.span("tuner.harvest_merge", op);
    for (const tuner::StoreRecord& r : harvest) mirror.store.put(r);
  }
  ++mirror.writes;
  if (!mirror.save_path.empty() && mirror.writes % mirror.save_every == 0) {
    const auto s = tr.span("tuner.store_save", op);
    mirror.store.merge_and_save(mirror.save_path);
  }
  totals.puts += static_cast<double>(harvest.size());
}

/// Per-layer metrics of a traced serving run.
void report_serve_layers(const Tracer& tr, std::size_t ops,
                         const Totals& totals, double save_bytes,
                         double traced_seconds, Outcome& out) {
  auto med = [&](const char* name) {
    return median_of(tr.self_ms_by_op(name));
  };
  auto sum_over_ops = [&](const char* name) {
    double s = 0;
    for (const auto& [op, ms] : tr.self_ms_by_op(name)) s += ms;
    return s;
  };
  const auto per_op = [&](double total) {
    return total / static_cast<double>(ops);
  };
  Metrics& m = out.layers;
  m["serve.parse_us"] = {1000 * med("serve.parse"), "us"};
  m["serve.render_us"] = {1000 * med("serve.render"), "us"};
  m["core.tune_ms"] = {med("core.tune"), "ms"};
  m["core.load_workload_ms"] = {med("core.load_workload"), "ms"};
  m["tuner.store_scan_ms"] = {med("tuner.store_scan"), "ms"};
  m["tuner.store_snapshot_ms"] = {med("tuner.store_snapshot"), "ms"};
  m["tuner.static_prune_ms"] = {med("tuner.static_prune"), "ms"};
  m["tuner.harvest_merge_ms"] = {med("tuner.harvest_merge"), "ms"};
  m["tuner.puts_per_op"] = {per_op(totals.puts), "count"};
  m["tuner.store_save_ms"] = {med("tuner.store_save"), "ms"};
  m["tuner.saves_per_op"] = {
      per_op(static_cast<double>(tr.self_ms_by_op("tuner.store_save").size())),
      "count"};
  m["tuner.save_bytes"] = {save_bytes, "bytes"};
  m["codegen.compile_ms"] = {med("codegen.compile"), "ms"};
  m["codegen.compiles_per_op"] = {per_op(totals.compiles), "count"};
  m["sim.analytic_eval_us"] = {
      totals.evals > 0
          ? 1000 * sum_over_ops("sim.analytic_eval") / totals.evals
          : 0.0,
      "us"};
  m["tuner.fresh_per_op"] = {per_op(totals.fresh), "count"};

  // The search loop's own time: tune_job over a store that answers
  // every evaluation (the op's warm store, or for a cold op its own
  // harvest), minus the static prune it repeats internally.
  auto search = tr.self_ms_by_op("tuner.tune_job");
  for (const auto& [op, ms] : tr.self_ms_by_op("tuner.search_warm"))
    search[op] = ms;
  const auto prune = tr.self_ms_by_op("tuner.static_prune");
  for (auto& [op, ms] : search) ms = std::max(0.0, ms - prune.at(op));
  m["tuner.search_ms"] = {median_of(search), "ms"};

  // Coverage: the replayed calls that run inside TuningService::tune,
  // summed over the run, against the real calls' summed time.
  const double replayed =
      sum_over_ops("core.load_workload") + sum_over_ops("tuner.store_scan") +
      sum_over_ops("tuner.store_snapshot") + sum_over_ops("tuner.tune_job") +
      sum_over_ops("tuner.harvest_merge") + sum_over_ops("tuner.store_save");
  const double real = sum_over_ops("core.tune");
  m["trace.coverage"] = {real > 0 ? replayed / real : 0, "ratio"};
  m["trace.ops_per_s"] = {
      traced_seconds > 0 ? static_cast<double>(ops) / traced_seconds : 0,
      "1/s"};
}

/// The traced op: the calls handle_line composes, then the replay.
std::string traced_op(Tracer& tr, std::size_t op, serve::Server& server,
                      const Request& q, Mirror& mirror, Totals& totals) {
  const auto root = tr.span("op", op);
  serve::WireRequest wire;
  {
    const auto s = tr.span("serve.parse", op);
    wire = serve::parse_request(q.line);
  }
  core::TuneResponse response;
  {
    const auto s = tr.span("core.tune", op);
    response = server.service().tune(wire.tune);
  }
  std::string line;
  {
    const auto s = tr.span("serve.render", op);
    line = serve::render_tune_response(wire, response, false);
  }
  totals.fresh += static_cast<double>(response.fresh_evaluations);
  totals.compiles += static_cast<double>(response.compiles);
  replay_tune(tr, op, q, wire.tune, mirror, totals);
  return line;
}

}  // namespace

// ---- serve_warm -------------------------------------------------------

Outcome run_serve_warm(const Options& opts, Tracer* tracer) {
  Outcome out;
  const std::vector<Context> contexts = default_contexts();
  const std::string store_path = opts.work_dir + "/store.txt";
  const std::string optima_path = opts.work_dir + "/optima.txt";
  run_in_child([&] {
    tuner::TuningStore store;
    std::map<std::string, double> optima;
    for (const Context& c : contexts) {
      std::vector<tuner::StoreRecord> harvest;
      optima[c.key()] = sweep_optimum(c, &harvest);
      for (tuner::StoreRecord& r : harvest) store.put(std::move(r));
    }
    store.save(store_path);
    write_optima(optima_path, optima);
  });
  const std::map<std::string, double> optima = read_optima(optima_path);

  std::mt19937_64 rng(opts.seed);
  std::vector<Request> requests;
  for (std::size_t idx : balanced_sequence(contexts.size(), opts.ops,
                                           opts.seed)) {
    Request q;
    q.ctx = contexts[idx];
    q.method = "rule";
    q.seed = rng() % 100000;
    q.line = render_line(requests.size(), q);
    requests.push_back(std::move(q));
  }

  // Set-up: daemon start on the store with daemon defaults, then one
  // request per context (the first touch compiles its pipeline).
  serve::ServeOptions serve_opts;
  serve_opts.store_path = store_path;
  std::unique_ptr<serve::Server> server;
  constexpr int kSetups = 3;
  warm_up();
  for (int rep = 0; rep < kSetups; ++rep) {
    server.reset();  // persists the previous instance, untimed
    const Clock::time_point start = Clock::now();
    server = std::make_unique<serve::Server>(serve_opts);
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      Request q;
      q.ctx = contexts[c];
      q.method = "rule";
      (void)server->handle_line(render_line(c, q));
    }
    out.setup_s.push_back(ms_since(start) / 1000.0);
  }

  std::vector<std::string> responses;
  responses.reserve(requests.size());
  if (tracer == nullptr) {
    for (const Request& q : requests) {
      const Clock::time_point start = Clock::now();
      responses.push_back(server->handle_line(q.line));
      out.op_ms.push_back(ms_since(start));
    }
  } else {
    Tracer& tr = *tracer;
    Mirror mirror;
    mirror.save_path = opts.work_dir + "/mirror.txt";
    std::filesystem::copy_file(store_path, mirror.save_path);
    {
      const auto s = tr.span("tuner.store_load", 0);
      mirror.store = tuner::TuningStore::load(mirror.save_path);
    }
    mirror.save_every = serve_opts.save_every;
    mirror.writes = contexts.size();  // the set-up requests' writes
    Totals totals;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i)
      responses.push_back(
          traced_op(tr, i, *server, requests[i], mirror, totals));
    const double traced_s = ms_since(start) / 1000.0;
    report_serve_layers(tr, requests.size(), totals,
                        static_cast<double>(
                            std::filesystem::file_size(mirror.save_path)),
                        traced_s, out);
    out.layers["tuner.store_load_ms"] = {
        median_of(tr.self_ms_by_op("tuner.store_load")), "ms"};
  }
  out.attempted = requests.size();
  check_replies(requests, responses, true, optima, out);
  return out;
}

// ---- serve_cold -------------------------------------------------------

namespace {

/// Method shares for cold tunes: every registered strategy, with the
/// budgeted searches at a fixed search budget. The exhaustive sweep is
/// the slow mode; at 2 of 9 shares op_p90_ms sits mid-mode, well clear
/// of the 78% boundary, and op_p50_ms inside the fast modes.
struct MethodShare {
  const char* method;
  std::size_t budget;
};
constexpr MethodShare kColdMethods[] = {
    {"rule", 0},       {"static", 0},   {"hybrid", 0},
    {"random", 64},    {"anneal", 64},  {"genetic", 64},
    {"simplex", 64},   {"exhaustive", 0}, {"exhaustive", 0},
};

}  // namespace

Outcome run_serve_cold(const Options& opts, Tracer* tracer) {
  Outcome out;
  const std::vector<Context> contexts = cold_contexts();
  const std::size_t n_methods = std::size(kColdMethods);

  // Each pass over the contexts is a permutation, so every context is
  // first-seen within its server's lifetime; the server restarts
  // between passes. Context c runs share (offset[c] + pass) mod 9, so
  // every 9 passes pair each context with each share exactly once.
  const std::vector<std::size_t> order =
      balanced_sequence(contexts.size(), opts.ops, opts.seed);
  std::mt19937_64 rng(opts.seed);
  std::vector<std::size_t> offset(contexts.size());
  for (std::size_t& o : offset) o = rng() % n_methods;
  std::vector<Request> requests;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t pass = i / contexts.size();
    const MethodShare& m =
        kColdMethods[(offset[order[i]] + pass) % n_methods];
    Request q;
    q.ctx = contexts[order[i]];
    q.method = m.method;
    q.search_budget = m.budget;
    q.seed = rng() % 100000;
    q.line = render_line(i, q);
    requests.push_back(std::move(q));
  }

  const std::string optima_path = opts.work_dir + "/optima.txt";
  run_in_child([&] {
    std::map<std::string, double> optima;
    for (const Context& c : contexts)
      optima[c.key()] = sweep_optimum(c, nullptr);
    write_optima(optima_path, optima);
  });
  const std::map<std::string, double> optima = read_optima(optima_path);

  // Set-up: daemon start (in-memory store) plus one first-touch tune
  // per kernel and GPU at a size outside the timed contexts.
  serve::ServeOptions serve_opts;
  std::unique_ptr<serve::Server> server;
  constexpr int kSetups = 11;
  warm_up();
  for (int rep = 0; rep < kSetups; ++rep) {
    server.reset();
    const Clock::time_point start = Clock::now();
    server = std::make_unique<serve::Server>(serve_opts);
    std::size_t id = 0;
    for (const std::string& k : kernels())
      for (const std::string& g : gpu_names()) {
        Request q;
        q.ctx = {k, g, k == "ex14fj" ? 4 : 64};
        q.method = "rule";
        (void)server->handle_line(render_line(id++, q));
      }
    out.setup_s.push_back(ms_since(start) / 1000.0);
  }

  std::vector<std::string> responses;
  responses.reserve(requests.size());
  Totals totals;
  Mirror mirror;
  double traced_s = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0 && i % contexts.size() == 0) {
      // Contexts ran out: restart (untimed) with an empty store.
      server = std::make_unique<serve::Server>(serve_opts);
      mirror = Mirror{};
    }
    const Clock::time_point start = Clock::now();
    if (tracer == nullptr) {
      responses.push_back(server->handle_line(requests[i].line));
      out.op_ms.push_back(ms_since(start));
    } else {
      responses.push_back(
          traced_op(*tracer, i, *server, requests[i], mirror, totals));
      traced_s += ms_since(start) / 1000.0;
    }
  }
  if (tracer != nullptr) {
    report_serve_layers(*tracer, requests.size(), totals, 0, traced_s, out);
    out.layers["tuner.store_load_ms"] = {0, "ms"};
  }
  out.attempted = requests.size();
  check_replies(requests, responses, false, optima, out);
  return out;
}

}  // namespace perfbench
