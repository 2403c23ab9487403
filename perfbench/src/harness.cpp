#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <random>
#include <stdexcept>

namespace perfbench {

void Outcome::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

Tracer::Scope Tracer::span(const char* name, std::size_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_us = now_us();
  return Scope(*this, spans_.size() - 1);
}

void Tracer::close(std::size_t index) {
  spans_[index].end_us = now_us();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::size_t, double> Tracer::self_ms_by_op(
    std::string_view name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::size_t, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    out[s.op] += (s.end_us - s.start_us - child_us[i]) / 1000.0;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "op\tspan\tparent\tname\tstart_us\tend_us\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.op << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_us << '\t' << s.end_us << '\n';
  }
}

const std::vector<std::string>& kernels() {
  static const std::vector<std::string> k = {"atax", "bicg", "ex14fj",
                                             "matvec2d"};
  return k;
}

double median_of(const std::map<std::size_t, double>& by_op) {
  std::vector<double> v;
  v.reserve(by_op.size());
  for (const auto& [op, ms] : by_op) v.push_back(ms);
  return median(std::move(v));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1,
                              values.size()) - 1;
  return values[idx];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<std::size_t> balanced_sequence(std::size_t population,
                                           std::size_t count,
                                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> deck(population);
  std::vector<std::size_t> out;
  out.reserve(count);
  while (out.size() < count) {
    std::iota(deck.begin(), deck.end(), std::size_t{0});
    std::shuffle(deck.begin(), deck.end(), rng);
    for (std::size_t i = 0; i < deck.size() && out.size() < count; ++i)
      out.push_back(deck[i]);
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void warm_up(double ms) {
  const Clock::time_point start = Clock::now();
  volatile std::uint64_t sink = 0;
  while (ms_since(start) < ms)
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<std::uint64_t>(i);
}

void run_in_child(const std::function<void()>& build) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 0;
    try {
      build();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: fixture failed: %s\n", e.what());
      rc = 1;
    }
    std::fflush(nullptr);
    _exit(rc);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("fixture child failed");
}

}  // namespace perfbench
