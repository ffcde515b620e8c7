// Shared helpers of the perfbench harness: clocks, seeded streams, input
// digests, latency summaries, the result document, and the in-memory span
// recorder used by the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/evaluator.hpp"
#include "src/util/json.hpp"

namespace perfbench {

/// Host wall clock in seconds on a monotonic origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: derives independent 64-bit streams from (seed, stream id), so
/// campaign seeds and request contents depend only on --seed and an index.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a digest of the generated inputs (printed so two runs can prove
/// they measured the same inputs).
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const std::string& text);
  void add(std::int64_t value) { add(std::to_string(value)); }
  [[nodiscard]] std::string hex() const;
};

/// Median and the highest percentile that still has at least ten samples
/// beyond it (99.9, 99, 95, 90, 75; none below 40 samples).
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail = 0.0;
  std::string tail_name;  ///< "p99" etc.; empty when n is too small
};
[[nodiscard]] Summary summarize(std::vector<double> values);
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// CPU time in seconds of the calling thread, of the whole process, and of
/// another thread of this process. The kernel's task clock leaves out the
/// time the hypervisor stole from the vCPU (paravirtual steal accounting),
/// so on a shared host these read the same where wall time inflates
/// severalfold.
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s(std::thread& thread);

/// Host-speed calibration. On a shared host the same work takes a varying
/// amount of CPU time, steal excluded: other guests load the physical cores
/// and their caches. The calibration kernel is a fixed piece of work that
/// uses none of the program's code and allocates nothing while timed (a
/// sort, hash-table inserts over 512 KiB, a byte hash over 64 KiB). A CPU
/// time multiplied by kReferenceKernelS / (the kernel's CPU time measured
/// beside it) is that CPU time at the reference speed.
inline constexpr double kReferenceKernelS = 2.5e-3;

/// CPU seconds of one kernel run on the calling thread.
[[nodiscard]] double calibration_kernel_s();

/// Median kernel CPU seconds over `reps` runs on each of `threads` threads
/// running at once.
[[nodiscard]] double calibrate(std::size_t threads, int reps);

/// `cpu_s` at the reference speed, given the kernel's CPU time beside it.
[[nodiscard]] inline double at_reference_speed(double cpu_s, double kernel_s) {
  return cpu_s * kReferenceKernelS / kernel_s;
}

/// Runs the calibration kernel every `period_s` on a thread of its own,
/// for work spread over threads the benchmark does not control (the serve
/// daemon's).
class KernelSampler {
 public:
  explicit KernelSampler(double period_s);
  ~KernelSampler() { stop(); }
  KernelSampler(const KernelSampler&) = delete;
  KernelSampler& operator=(const KernelSampler&) = delete;

  void stop();
  /// The sampler thread's own CPU time so far; valid until stop().
  [[nodiscard]] double cpu_s();
  /// Median kernel CPU seconds of the runs that ended in [t0, t1); 0 if none.
  [[nodiscard]] double median_between(double t0, double t1) const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<double, double>> runs_;  ///< (end time, kernel CPU seconds)
  std::thread thread_;
};

/// One reported number. `samples` is how many measurements it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< clock / source / why unavailable
};

/// Set one metric of a report section.
inline void put(std::map<std::string, Metric>& section, const std::string& name, double value,
                const std::string& unit, std::size_t samples, const std::string& note = "") {
  section[name] = Metric{value, unit, samples, note};
}

/// Everything one workload run reports; rendered as the harness's last
/// stdout line and consumed by run.py.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::string digest;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few oracle mismatches
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;

  void fail(const std::string& what);
  [[nodiscard]] dovado::util::Json to_json() const;
};

/// The FPGA part every workload targets.
inline constexpr const char* kPart = "xc7k70tfbv676-1";

/// The cv32e40p FIFO project of fifo-nwm and serve-mix.
[[nodiscard]] dovado::core::ProjectConfig fifo_project(const std::string& rtl_dir);

/// Reference answers for the correctness oracles: a private PointEvaluator
/// with its own cache, consulted only outside the timed windows.
class Reference {
 public:
  explicit Reference(dovado::core::ProjectConfig project) : project_(std::move(project)) {}

  const dovado::core::EvalResult& get(const dovado::core::DesignPoint& point);

  /// Evaluate the points not known yet on `threads` private evaluators in
  /// parallel (each with its own cache).
  void precompute(const std::vector<dovado::core::DesignPoint>& points, std::size_t threads);

  /// Self-test hook: perturb one known reference answer.
  void corrupt(const dovado::core::DesignPoint& point);

 private:
  dovado::core::ProjectConfig project_;
  std::unique_ptr<dovado::core::PointEvaluator> evaluator_;
  std::map<dovado::core::DesignPoint, dovado::core::EvalResult> answers_;
};

/// Self-test bookkeeping: one line per check on stderr, failures counted.
struct Checks {
  int failures = 0;
  void expect(bool ok, const char* what);
};

/// Options shared by the workloads.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rtl_dir;   ///< the repository's rtl/ directory
  std::string work_dir;  ///< scratch space inside the checkout
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, exported as Chrome trace-event JSON.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  double t0 = 0.0;
  double t1 = 0.0;
  int tid = 0;
};

class Tracer {
 public:
  /// Recording is off until enable(); a disabled tracer records nothing.
  static Tracer& get();
  void enable() { on_.store(true); }
  void disable() { on_.store(false); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }

  /// The span the calling context belongs to (set by the workload around a
  /// campaign or a request; read by the decorators on worker threads).
  void set_root(std::uint64_t id) { root_.store(id); }
  [[nodiscard]] std::uint64_t root() const { return root_.load(); }

  std::uint64_t next_id() { return next_.fetch_add(1) + 1; }
  void record(const Span& span);
  [[nodiscard]] std::vector<Span> spans() const;

  /// Write {"traceEvents":[...]} to `path`; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> root_{0};
  std::atomic<std::uint64_t> next_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Small integer id of the calling thread (Chrome trace "tid").
int thread_index();

/// Total length of the union of [t0, t1) intervals.
[[nodiscard]] double union_length(std::vector<std::pair<double, double>> intervals);

/// Register the timing decorators on the public registry seams:
/// "vivado-sim" in edatool::BackendRegistry and "nsga2" in
/// opt::OptimizerRegistry. Each wraps the shipped implementation under the
/// same name (store keys stay unchanged) and records one span per
/// run_flow / ask / tell while the tracer is on.
void install_decorators();

/// Failed run_flow outcomes seen by the decorator.
[[nodiscard]] std::size_t decorated_flow_failures();

/// Every per-layer metric with its unit. Traced runs report all of them;
/// complete_per_layer() fills those a workload does not exercise with 0
/// and says why.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();
void complete_per_layer(Report& report);

/// Replays of the evaluation pipeline's layers on a workload's own points:
/// PointEvaluator::evaluate on a fresh evaluator (every point distinct, so
/// every call misses its cache), the same points again (all hits), and
/// parse_file / generate_box / generate_flow_script.
struct PipelineSamples {
  std::vector<double> cold, hit, parse, box, script;  ///< microseconds
  void add(const dovado::core::ProjectConfig& project,
           const std::vector<dovado::core::DesignPoint>& points);
  void report(Report& report) const;
};

// Workloads and their self-tests (campaigns.cpp, serve_mix.cpp). A
// self-test adds its checks to `checks`.
void run_fifo_nwm(const RunOptions& options, Report& report);
void run_exact_sweep(const RunOptions& options, Report& report);
void run_serve_mix(const RunOptions& options, Report& report);
void selftest_campaigns(const RunOptions& options, Checks& checks);
void selftest_serve(const RunOptions& options, Checks& checks);

}  // namespace perfbench
