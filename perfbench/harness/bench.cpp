#include "perfbench/harness/bench.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "src/edatool/backend.hpp"
#include "src/edatool/vivado_sim_backend.hpp"
#include "src/opt/nsga2.hpp"
#include "src/opt/optimizer.hpp"

namespace perfbench {

using dovado::util::Json;
using dovado::util::JsonArray;
using dovado::util::JsonObject;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::add(const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  h ^= 0xff;  // field separator
  h *= 1099511628211ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = quantile(values, 0.5);
  static const std::pair<double, const char*> kTails[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.75, "p75"}};
  for (const auto& [q, name] : kTails) {
    if (static_cast<double>(s.n) * (1.0 - q) >= 10.0 - 1e-9) {
      s.tail = quantile(values, q);
      s.tail_name = name;
      break;
    }
  }
  return s;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s(std::thread& thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) return 0.0;
  return cpu_clock_s(clock);
}

namespace {

/// Buffers of the calibration kernel, one set per thread, sized once.
struct KernelBuffers {
  std::vector<std::uint64_t> keys = std::vector<std::uint64_t>(16384);
  std::vector<std::uint64_t> table = std::vector<std::uint64_t>(65536);  // 512 KiB
  std::vector<unsigned char> bytes = std::vector<unsigned char>(65536);
};

std::atomic<std::uint64_t> kernel_sink{0};

/// The fixed work: sort 16k keys, insert 40k keys into an open-addressing
/// table, FNV-hash 64 KiB. Every run does exactly the same work.
std::uint64_t run_kernel(KernelBuffers& b) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (auto& k : b.keys) k = next();
  std::sort(b.keys.begin(), b.keys.end());
  std::fill(b.table.begin(), b.table.end(), 0);
  const std::size_t mask = b.table.size() - 1;
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t key = next() | 1;
    std::size_t slot = static_cast<std::size_t>(key * 0xbf58476d1ce4e5b9ULL >> 40) & mask;
    while (b.table[slot] != 0 && b.table[slot] != key) slot = (slot + 1) & mask;
    b.table[slot] = key;
  }
  for (std::size_t i = 0; i < b.bytes.size(); ++i) b.bytes[i] = static_cast<unsigned char>(b.keys[i % b.keys.size()] >> (i % 57));
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : b.bytes) h = (h ^ c) * 1099511628211ULL;
  return h ^ b.keys[b.keys.size() / 2] ^ b.table[h & mask];
}

}  // namespace

double calibration_kernel_s() {
  thread_local KernelBuffers buffers;
  const double t0 = thread_cpu_s();
  kernel_sink.fetch_add(run_kernel(buffers), std::memory_order_relaxed);
  return thread_cpu_s() - t0;
}

double calibrate(std::size_t threads, int reps) {
  std::vector<std::vector<double>> runs(threads);
  auto body = [&](std::size_t t) {
    for (int r = 0; r < reps; ++r) runs[t].push_back(calibration_kernel_s());
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(body, t);
  body(0);
  for (auto& h : helpers) h.join();
  std::vector<double> all;
  for (const auto& r : runs) all.insert(all.end(), r.begin(), r.end());
  return median(all);
}

KernelSampler::KernelSampler(double period_s) {
  thread_ = std::thread([this, period_s] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const double cpu = calibration_kernel_s();
      const double end = now_s();
      lock.lock();
      runs_.emplace_back(end, cpu);
      cv_.wait_for(lock, std::chrono::duration<double>(period_s), [this] { return stop_; });
    }
  });
}

void KernelSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double KernelSampler::cpu_s() { return thread_cpu_s(thread_); }

double KernelSampler::median_between(double t0, double t1) const {
  std::vector<double> in;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [end, cpu] : runs_) {
    if (end >= t0 && end < t1) in.push_back(cpu);
  }
  return in.empty() ? 0.0 : median(in);
}

dovado::core::ProjectConfig fifo_project(const std::string& rtl_dir) {
  dovado::core::ProjectConfig project;
  project.sources.push_back({rtl_dir + "/cv32e40p_fifo.sv",
                             dovado::hdl::HdlLanguage::kSystemVerilog, "work", false});
  project.top_module = "cv32e40p_fifo";
  project.part = kPart;
  return project;
}

const dovado::core::EvalResult& Reference::get(const dovado::core::DesignPoint& point) {
  auto it = answers_.find(point);
  if (it == answers_.end()) {
    if (!evaluator_) evaluator_ = std::make_unique<dovado::core::PointEvaluator>(project_);
    it = answers_.emplace(point, evaluator_->evaluate(point)).first;
  }
  return it->second;
}

void Reference::precompute(const std::vector<dovado::core::DesignPoint>& points,
                           std::size_t threads) {
  std::vector<dovado::core::DesignPoint> todo;
  for (const auto& p : points) {
    if (answers_.count(p) == 0) todo.push_back(p);
  }
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  std::vector<std::vector<dovado::core::EvalResult>> results(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      dovado::core::PointEvaluator evaluator(project_);
      for (std::size_t k = t; k < todo.size(); k += threads) {
        results[t].push_back(evaluator.evaluate(todo[k]));
      }
    });
  }
  for (auto& th : pool) th.join();
  for (std::size_t k = 0; k < todo.size(); ++k) {
    answers_.emplace(todo[k], std::move(results[k % threads][k / threads]));
  }
}

void Reference::corrupt(const dovado::core::DesignPoint& point) {
  auto& ref = answers_.at(point);
  if (!ref.metrics.values.empty()) ref.metrics.values.begin()->second += 1.0;
  else ref.ok = !ref.ok;
}

void Checks::expect(bool ok, const char* what) {
  std::fprintf(stderr, "  %-62s %s\n", what, ok ? "ok" : "FAILED");
  failures += ok ? 0 : 1;
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {

Json metrics_json(const std::map<std::string, Metric>& metrics) {
  JsonObject out;
  for (const auto& [name, m] : metrics) {
    JsonObject entry;
    entry["value"] = Json(m.value);
    entry["unit"] = Json(m.unit);
    entry["samples"] = Json(m.samples);
    if (!m.note.empty()) entry["note"] = Json(m.note);
    out[name] = Json(std::move(entry));
  }
  return Json(std::move(out));
}

}  // namespace

Json Report::to_json() const {
  JsonObject root;
  root["workload"] = Json(workload);
  root["seed"] = Json(static_cast<double>(seed));
  root["trace"] = Json(traced);
  root["digest"] = Json(digest);
  root["attempted"] = Json(attempted);
  root["failed"] = Json(failed);
  root["correct"] = Json(failed == 0 && attempted > 0);
  JsonArray fail_list;
  for (const auto& f : failures) fail_list.emplace_back(f);
  root["failures"] = Json(std::move(fail_list));
  root["end_to_end"] = metrics_json(end_to_end);
  root["per_layer"] = metrics_json(per_layer);
  JsonArray note_list;
  for (const auto& n : notes) note_list.emplace_back(n);
  root["notes"] = Json(std::move(note_list));
  return Json(std::move(root));
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"edatool.run_flow.calls", "count"},   {"edatool.run_flow.busy_ms", "ms"},
      {"edatool.run_flow.p50_us", "us"},     {"edatool.run_flow.p99_us", "us"},
      {"edatool.run_flow.failed", "count"},  {"core.evaluate_cold_us", "us"},
      {"core.evaluate_hit_us", "us"},        {"hdl.parse_file_us", "us"},
      {"boxing.generate_box_us", "us"},      {"tcl.flow_script_us", "us"},
      {"core.campaign_self_ms", "ms"},       {"core.lease_waits", "count"},
      {"core.utilization", "ratio"},         {"core.fresh_runs", "count"},
      {"core.cache_hits", "count"},          {"model.add_sample.calls", "count"},
      {"model.add_sample.busy_ms", "ms"},    {"model.add_sample.p99_ms", "ms"},
      {"model.decide_us", "us"},             {"model.estimate_us", "us"},
      {"model.dataset_n", "count"},          {"model.estimate_share", "ratio"},
      {"model.verify_abs_err", "ratio"},     {"opt.ask.busy_ms", "ms"},
      {"opt.tell.busy_ms", "ms"},            {"opt.survival_us", "us"},
      {"opt.hypervolume_ms", "ms"},          {"analysis.preflight_ms", "ms"},
      {"store.open_ms", "ms"},               {"store.append_us.p50", "us"},
      {"store.append_us.p99", "us"},         {"store.lookup_us", "us"},
      {"store.hits", "count"},               {"store.appends", "count"},
      {"journal.append_us.p50", "us"},       {"journal.append_us.p99", "us"},
      {"serve.hit_us.p50", "us"},            {"serve.hit_us.p99", "us"},
      {"serve.store_hit_us.p50", "us"},      {"serve.store_hit_us.p99", "us"},
      {"serve.fresh_us.p50", "us"},          {"serve.fresh_us.p99", "us"},
      {"serve.ping_us.p50", "us"},           {"serve.ping_us.p99", "us"},
      {"serve.shed", "count"},               {"serve.queue_max", "count"},
      {"serve.share_err", "ratio"},          {"bench.gen_lag_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},           {"trace.coverage", "ratio"},
  };
  return kCatalog;
}

void complete_per_layer(Report& report) {
  for (const auto& [name, unit] : per_layer_catalog()) {
    if (report.per_layer.count(name) == 0) {
      report.per_layer[name] = Metric{0.0, unit, 0, "unavailable: not exercised by " + report.workload};
    }
  }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer instance;
  return instance;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  double origin = all.empty() ? 0.0 : all.front().t0;
  for (const auto& s : all) origin = std::min(origin, s.t0);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (const auto& s : all) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"dovado\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                  ",\"parent\":%" PRIu64 "}}",
                  first ? "" : ",", s.name, s.tid, (s.t0 - origin) * 1e6,
                  (s.t1 - s.t0) * 1e6, s.id, s.parent);
    out << buf;
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = ++next;
  return id;
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double start = 0.0;
  double end = -1.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (!open || a > end) {
      if (open) total += end - start;
      start = a;
      end = b;
      open = true;
    } else {
      end = std::max(end, b);
    }
  }
  if (open) total += end - start;
  return total;
}

// ---------------------------------------------------------------------------
// Decorators on the registry seams
// ---------------------------------------------------------------------------

namespace {

namespace eda = dovado::edatool;
namespace opt = dovado::opt;

std::atomic<std::size_t> g_flow_failures{0};

/// Times one call and records it as a span under the current root.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name), t0_(now_s()) {}
  ~ScopedSpan() {
    Tracer& tracer = Tracer::get();
    if (!tracer.on()) return;
    Span span;
    span.name = name_;
    span.id = tracer.next_id();
    span.parent = tracer.root();
    span.t0 = t0_;
    span.t1 = now_s();
    span.tid = thread_index();
    tracer.record(span);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  double t0_;
};

class TimedBackend final : public eda::EdaBackend {
 public:
  explicit TimedBackend(std::unique_ptr<eda::EdaBackend> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] const eda::BackendInfo& info() const override { return inner_->info(); }
  void add_virtual_file(const std::string& path, std::string content) override {
    inner_->add_virtual_file(path, std::move(content));
  }
  void set_fault_injector(std::shared_ptr<const eda::FaultInjector> injector) override {
    inner_->set_fault_injector(std::move(injector));
  }
  void set_fault_context(std::uint64_t point_key, int attempt) override {
    inner_->set_fault_context(point_key, attempt);
  }
  [[nodiscard]] eda::FlowOutcome run_flow(const eda::FlowRequest& request) override {
    ScopedSpan span("edatool.run_flow");
    eda::FlowOutcome outcome = inner_->run_flow(request);
    if (!outcome.ok && Tracer::get().on()) g_flow_failures.fetch_add(1);
    return outcome;
  }
  [[nodiscard]] double total_seconds() const override { return inner_->total_seconds(); }
  [[nodiscard]] std::uint64_t flows_run() const override { return inner_->flows_run(); }
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return inner_->metric_names();
  }

 private:
  std::unique_ptr<eda::EdaBackend> inner_;
};

class TimedOptimizer final : public opt::Optimizer {
 public:
  explicit TimedOptimizer(std::unique_ptr<opt::Optimizer> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] const opt::OptimizerInfo& info() const override { return inner_->info(); }
  [[nodiscard]] opt::Genome ask() override {
    ScopedSpan span("opt.ask");
    return inner_->ask();
  }
  void tell(const opt::Genome& genome, const opt::Objectives& objectives,
            double cost_seconds) override {
    ScopedSpan span("opt.tell");
    inner_->tell(genome, objectives, cost_seconds);
  }
  void reserve(const opt::Genome& genome) override { inner_->reserve(genome); }
  void reserve_for(const opt::Genome& genome, const std::string& member) override {
    inner_->reserve_for(genome, member);
  }
  [[nodiscard]] std::string attributed_to(const opt::Genome& genome) const override {
    return inner_->attributed_to(genome);
  }
  [[nodiscard]] std::vector<opt::Individual> front() const override {
    return inner_->front();
  }
  [[nodiscard]] std::size_t told() const override { return inner_->told(); }
  [[nodiscard]] std::vector<opt::MemberStats> member_stats() const override {
    return inner_->member_stats();
  }

 private:
  std::unique_ptr<opt::Optimizer> inner_;
};

}  // namespace

void install_decorators() {
  eda::BackendRegistry::register_backend("vivado-sim", [] {
    return std::unique_ptr<eda::EdaBackend>(
        std::make_unique<TimedBackend>(std::make_unique<eda::VivadoSimBackend>()));
  });
  opt::OptimizerRegistry::register_optimizer("nsga2", [](const opt::OptimizerContext& ctx) {
    return std::unique_ptr<opt::Optimizer>(std::make_unique<TimedOptimizer>(
        std::make_unique<opt::SteadyStateNsga2>(ctx.ga, *ctx.problem)));
  });
}

std::size_t decorated_flow_failures() { return g_flow_failures.load(); }

}  // namespace perfbench
