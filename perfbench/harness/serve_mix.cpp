// The serve-mix workload: a `dovado serve` daemon (the in-process Server
// behind the CLI) on the cv32e40p FIFO over FALL_THROUGH x DEPTH x DATA_WIDTH, with the
// journal and the evaluation store on, 2 broker workers and 3 tenants
// weighted 4:2:1. Admission limits are configured but sit above the
// offered load.
//
// Load comes from this process over 3 pipelined connections (one per
// tenant), open loop at fixed absolute rates; every request is timed from
// the moment it was due. The mix is about 60% hot points (cache hits),
// 20% points written into the store before timing starts (store hits,
// durable reads) and 20% points never seen before (fresh tool run +
// journal fsync + store append). It is the only workload where the serve,
// journal and store layers work.
//
// Phases of an untraced run (S = --seconds):
//   setup    11 x (open store, construct + start the server, first ping)
//   nominal  kNominalRate for 0.5 S     -> cpu_ms, lat_p50_ms, lat_p99_ms, tool_s
//   peak     kPeakRate for 0.2 S        -> lat_p99_ms.peak
//   search   10 steps of rising rate    -> max_rps
// A traced run replaces the search by a second, traced nominal phase and
// layer replays.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "perfbench/harness/bench.hpp"
#include "src/core/broker.hpp"
#include "src/core/journal.hpp"
#include "src/serve/client.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/store/store.hpp"
#include "src/util/rng.hpp"
#include "src/util/socket.hpp"

namespace perfbench {

namespace {

namespace core = dovado::core;
namespace serve = dovado::serve;
namespace store = dovado::store;
namespace util = dovado::util;

constexpr std::size_t kHotPoints = 64;
/// requests/s. Low enough that queueing does not amplify host preemption:
/// on a 4-vCPU KVM guest with ~28% of CPU time stolen by the hypervisor,
/// p50 read 2.4-3.4 ms at 1000 req/s and 0.4-0.75 ms at 400 req/s (about
/// 0.19 ms with no steal).
constexpr double kNominalRate = 500.0;
constexpr double kPeakRate = 4000.0;     ///< requests/s
constexpr int kSearchSteps = 10;         ///< max_rps search steps that fit a run
constexpr double kLatencyLimitMs = 50.0; ///< p99 limit that max_rps must meet
constexpr std::size_t kSetups = 11;
/// The generator sleeps until this long before a request is due, then
/// spins: latency is timed from the due time, and a sleeping thread's
/// wakeup latency on a shared host (50-100 us, with ms outliers) would
/// otherwise be measured as the daemon's.
constexpr double kSpinS = 150e-6;
constexpr const char* kTenants[] = {"alice", "bob", "carol"};
constexpr double kWeights[] = {4.0, 2.0, 1.0};

enum Cat : std::uint8_t { kHot, kStored, kFresh };

/// The request universe: a seeded permutation of the FALL_THROUGH x
/// DEPTH x DATA_WIDTH grid (every point fits the device, so no answer is a
/// tool failure), split into the hot set, the points written into the
/// store before timing, and points never seen before.
struct Universe {
  std::vector<std::array<std::int32_t, 3>> grid;  ///< (FALL_THROUGH, DEPTH, DATA_WIDTH)
  std::size_t stored = 0;  ///< [kHotPoints, kHotPoints + stored) are in the store

  [[nodiscard]] std::size_t size() const { return grid.size(); }
  [[nodiscard]] core::DesignPoint point(std::size_t i) const {
    return {{"FALL_THROUGH", grid[i][0]}, {"DEPTH", grid[i][1]}, {"DATA_WIDTH", grid[i][2]}};
  }
};

Universe make_universe(std::uint64_t seed, std::size_t stored) {
  Universe u;
  for (std::int32_t fall_through = 0; fall_through < 2; ++fall_through) {
    for (std::int32_t depth = 8; depth < 8 + 1024; ++depth) {
      for (std::int32_t width = 1; width <= 64; ++width) u.grid.push_back({fall_through, depth, width});
    }
  }
  util::Rng rng(mix(seed, 0x5e));
  for (std::size_t i = u.grid.size() - 1; i > 0; --i) {
    std::swap(u.grid[i], u.grid[rng.index(i + 1)]);
  }
  u.stored = std::min(stored, u.grid.size() / 2);
  return u;
}

/// One generated request: which point, which tenant, which class.
struct Planned {
  std::uint32_t point = 0;
  std::uint8_t tenant = 0;
  Cat cat = kHot;
};

/// The seeded request stream, in blocks of 70 requests holding exactly
/// 42 hot, 14 stored and 14 fresh requests and 40/20/10 requests of the
/// three tenants, each shuffled by (seed, block). Store and fresh requests
/// walk their parts of the universe in order, so the stream is a pure
/// function of the seed and every phase gets the nominal mix.
class Stream {
 public:
  Stream(std::uint64_t seed, const Universe& universe) : seed_(seed), universe_(universe) {}

  Planned next() {
    const std::uint64_t i = issued_++;
    if (i % kBlock == 0) refill(i / kBlock);
    Planned p = block_[i % kBlock];
    if (p.cat == kHot) {
      p.point = static_cast<std::uint32_t>(mix(seed_, i) % kHotPoints);
    } else if (p.cat == kStored && stored_next_ < universe_.stored) {
      p.point = static_cast<std::uint32_t>(kHotPoints + stored_next_++);
    } else {
      p.cat = kFresh;
      const std::size_t index = kHotPoints + universe_.stored + fresh_next_++;
      if (index >= universe_.size()) throw std::runtime_error("request universe exhausted");
      p.point = static_cast<std::uint32_t>(index);
    }
    return p;
  }

 private:
  static constexpr std::size_t kBlock = 70;

  void refill(std::uint64_t block) {
    util::Rng rng(mix(seed_, 0xb10c0000ULL + block));
    std::array<Cat, kBlock> cats{};
    std::array<std::uint8_t, kBlock> tenants{};
    for (std::size_t k = 0; k < kBlock; ++k) {
      cats[k] = k < 42 ? kHot : (k < 56 ? kStored : kFresh);
      tenants[k] = k < 40 ? 0 : (k < 60 ? 1 : 2);
    }
    for (std::size_t k = kBlock - 1; k > 0; --k) {
      std::swap(cats[k], cats[rng.index(k + 1)]);
      std::swap(tenants[k], tenants[rng.index(k + 1)]);
    }
    for (std::size_t k = 0; k < kBlock; ++k) block_[k] = Planned{0, tenants[k], cats[k]};
  }

  std::uint64_t seed_;
  const Universe& universe_;
  std::uint64_t issued_ = 0;
  std::size_t stored_next_ = 0;
  std::size_t fresh_next_ = 0;
  std::array<Planned, kBlock> block_{};
};

/// FNV digest of a metrics map, bit-exact on the values.
std::uint64_t metrics_hash(const std::map<std::string, double>& metrics) {
  Digest d;
  for (const auto& [name, value] : metrics) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    d.add(name);
    d.add(static_cast<std::int64_t>(bits));
  }
  return d.h;
}

constexpr std::uint8_t kNoAnswer = 255;

/// One sent request and its answer.
struct Rec {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  Planned plan;
  std::uint8_t status = kNoAnswer;  ///< serve::ResponseStatus
  bool cache_hit = false;
  bool store_hit = false;
  double tool_seconds = 0.0;
  std::uint64_t metrics = 0;  ///< metrics_hash of the answer
};

/// Open-loop load generator: the calling thread paces requests onto the
/// tenants' connections; one reader thread polls all three and matches
/// answers to requests by id.
class LoadClient {
 public:
  LoadClient(const std::string& socket, const Universe& universe, std::size_t capacity)
      : universe_(universe), recs_(capacity) {
    for (auto& conn : conns_) {
      std::string error;
      conn = util::connect_unix(socket, error);
      if (!conn.valid()) throw std::runtime_error("connect: " + error);
    }
    reader_ = std::thread([this] { read_loop(); });
  }

  ~LoadClient() { stop(); }

  /// Stop and join the reader; the records stay readable.
  void stop() {
    stop_.store(true);
    if (reader_.joinable()) reader_.join();
    kernel_.stop();
  }

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Send `seconds * rate` requests at `rate`, then wait (at most
  /// `drain_s`) for their answers. Returns the [first, last) record range.
  /// `stall_at` delays the generator once (self-test of the lateness report).
  std::pair<std::size_t, std::size_t> run_phase(Stream& stream, double rate, double seconds,
                                                double drain_s = 30.0,
                                                std::size_t stall_at = SIZE_MAX) {
    const auto n = static_cast<std::size_t>(rate * seconds);
    const std::size_t first = next_;
    if (first + n > recs_.size()) throw std::runtime_error("request capacity exhausted");
    std::vector<std::string> frames(n);
    for (std::size_t k = 0; k < n; ++k) {
      Rec& rec = recs_[first + k];
      rec.plan = stream.next();
      serve::Request request;
      request.op = serve::RequestOp::kEval;
      request.tenant = kTenants[rec.plan.tenant];
      request.id = "r" + std::to_string(first + k);
      request.point = universe_.point(rec.plan.point);
      frames[k] = serve::serialize_request(request);
    }
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const double t0 = now_s() + 0.002;
    for (std::size_t k = 0; k < n; ++k) {
      Rec& rec = recs_[first + k];
      rec.due = t0 + static_cast<double>(k) / rate;
      if (k == stall_at) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const double wait = rec.due - now_s() - kSpinS;
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      while (now_s() < rec.due) {
      }
      rec.sent = now_s();
      if (k % kCpuWindow == 0) cpu_marks_[first + k] = {rec.sent, daemon_cpu_s()};
      if (!conns_[rec.plan.tenant].write_line(frames[k], 5000)) {
        throw std::runtime_error("send failed");
      }
    }
    next_ = first + n;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::duration<double>(drain_s),
                   [&] { return answered_ >= next_; });
    }
    if (n % kCpuWindow == 0) cpu_marks_[next_] = {now_s(), daemon_cpu_s()};
    return {first, next_};
  }

  /// CPU time of the rest of the process, i.e. the daemon's: the process's
  /// less that of the generator (the calling thread, which spins before each
  /// due time), the reader thread and the kernel sampler. Valid until stop().
  [[nodiscard]] double daemon_cpu_s() {
    return process_cpu_s() - thread_cpu_s() - thread_cpu_s(reader_) - kernel_.cpu_s();
  }

  /// Requests per CPU window: four blocks of the stream, so every window
  /// holds the exact 60/20/20 mix.
  static constexpr std::size_t kCpuWindow = 280;

  /// Daemon CPU time per request (ms) in each whole window of a range sent
  /// by run_phase.
  [[nodiscard]] std::vector<double> cpu_ms_per_request(std::pair<std::size_t, std::size_t> range) const {
    std::vector<double> out;
    for (std::size_t i = range.first; i + kCpuWindow <= range.second; i += kCpuWindow) {
      const auto a = cpu_marks_.find(i), b = cpu_marks_.find(i + kCpuWindow);
      if (a == cpu_marks_.end() || b == cpu_marks_.end()) break;
      out.push_back((b->second.second - a->second.second) / static_cast<double>(kCpuWindow) * 1e3);
    }
    return out;
  }

  /// Median calibration kernel CPU seconds over the time a range was sent.
  [[nodiscard]] double kernel_s(std::pair<std::size_t, std::size_t> range) const {
    return kernel_.median_between(recs_[range.first].sent, recs_[range.second - 1].sent);
  }

  [[nodiscard]] const Rec& rec(std::size_t i) const { return recs_[i]; }
  [[nodiscard]] std::size_t remaining() const { return recs_.size() - next_; }
  [[nodiscard]] std::size_t sent() const { return next_; }

 private:
  void read_loop() {
    std::array<pollfd, 3> fds{};
    for (std::size_t c = 0; c < fds.size(); ++c) fds[c] = {conns_[c].fd(), POLLIN, 0};
    std::string line;
    while (!stop_.load()) {
      if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if (fds[c].fd < 0 || fds[c].revents == 0) continue;
        bool timed_out = false;
        while (conns_[c].read_line(line, 0, &timed_out)) record(line);
        if (!timed_out) fds[c].fd = -1;  // peer closed
      }
    }
  }

  void record(const std::string& line) {
    const double done = now_s();
    serve::Response response;
    std::string error;
    if (!serve::parse_response(line, response, error) || response.id.size() < 2 ||
        response.id[0] != 'r') {
      return;
    }
    const std::size_t i = std::strtoull(response.id.c_str() + 1, nullptr, 10);
    if (i >= recs_.size()) return;
    Rec& rec = recs_[i];
    rec.done = done;
    rec.status = static_cast<std::uint8_t>(response.status);
    rec.cache_hit = response.cache_hit;
    rec.store_hit = response.store_hit;
    rec.tool_seconds = response.tool_seconds;
    rec.metrics = metrics_hash(response.metrics);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++answered_;
    }
    cv_.notify_all();
  }

  const Universe& universe_;
  std::vector<Rec> recs_;
  std::size_t next_ = 0;
  /// request index -> (time it was sent, daemon_cpu_s() then)
  std::map<std::size_t, std::pair<double, double>> cpu_marks_;
  KernelSampler kernel_{0.025};
  std::array<util::LineSocket, 3> conns_;
  std::thread reader_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t answered_ = 0;
};

/// Latencies (ms, from the due time) and generator lateness of a range.
struct PhaseStats {
  std::vector<double> latency_ms;
  std::vector<double> window_p50_ms;  ///< median latency of each 1 s of due time
  std::vector<double> lag_ms;
  std::size_t answered_ok = 0;
  std::size_t count = 0;
  double tool_seconds = 0.0;
};

PhaseStats phase_stats(const LoadClient& client, std::pair<std::size_t, std::size_t> range) {
  PhaseStats s;
  std::vector<double> window;
  double window_end = range.first < range.second ? client.rec(range.first).due + 1.0 : 0.0;
  for (std::size_t i = range.first; i < range.second; ++i) {
    const Rec& r = client.rec(i);
    if (r.due >= window_end) {
      if (!window.empty()) s.window_p50_ms.push_back(median(window));
      window.clear();
      window_end += 1.0;
    }
    if (r.status == static_cast<std::uint8_t>(serve::ResponseStatus::kOk)) {
      window.push_back((r.done - r.due) * 1e3);
    }
    ++s.count;
    s.lag_ms.push_back((r.sent - r.due) * 1e3);
    if (r.status == static_cast<std::uint8_t>(serve::ResponseStatus::kOk)) {
      ++s.answered_ok;
      s.latency_ms.push_back((r.done - r.due) * 1e3);
      s.tool_seconds += r.tool_seconds;
    }
  }
  if (!window.empty()) s.window_p50_ms.push_back(median(window));
  return s;
}

/// Write the store-hit points into the store the way an earlier campaign
/// would: a broker with the store attached evaluates them (3 workers,
/// batched fsync). It runs in a child process, so its memory stays out of
/// peak_rss_mb and its writer lock is gone when the daemon opens the store.
void prepopulate(const core::ProjectConfig& project, const Universe& u, const std::string& path) {
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    int code = 1;
    try {
      store::StoreOptions options;
      options.fsync_interval = 1u << 20;
      auto opened = store::EvalStore::open_writer(path, options);
      if (opened.store) {
        std::shared_ptr<store::EvalStore> db(std::move(opened.store));
        core::BrokerConfig config;
        config.workers = 3;
        config.store = db;
        config.campaign_id = "prepopulate";
        core::EvaluationBroker broker(project, config);
        broker.parallel_for(u.stored, [&](std::size_t i) {
          (void)broker.tool_evaluate(u.point(kHotPoints + i));
        });
        code = db->flush() ? 0 : 1;
      }
    } catch (...) {
      code = 1;
    }
    std::_Exit(code);
  }
  int status = 0;
  if (waitpid(child, &status, 0) != child || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("store pre-population failed");
  }
}

struct Paths {
  std::string dir, store, journal, socket;
};

/// A fresh, empty directory for one daemon's store, journal and socket.
Paths fresh_paths(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return {dir, dir + "/evals.dvstor", dir + "/journal.jsonl", dir + "/serve.sock"};
}

/// A started daemon plus the host time and the process CPU time it took
/// to become ready.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;
};

Daemon start_daemon(const core::ProjectConfig& project, const Paths& paths) {
  std::filesystem::remove(paths.journal);
  Daemon d;
  const double t0 = now_s();
  const double cpu0 = process_cpu_s();
  auto opened = store::EvalStore::open_writer(paths.store);
  if (!opened.store) throw std::runtime_error("store: " + opened.error);
  serve::ServeConfig config;
  config.socket_path = paths.socket;
  config.project = project;
  config.broker.workers = 2;
  config.broker.journal_path = paths.journal;
  config.broker.resume_from_journal = true;
  config.broker.store = std::shared_ptr<store::EvalStore>(std::move(opened.store));
  config.broker.campaign_id = "serve";
  for (int t = 0; t < 3; ++t) {
    serve::ServeTenantConfig tenant;
    tenant.name = kTenants[t];
    tenant.policy.weight = kWeights[t];
    tenant.policy.request_rate = 100000.0;
    tenant.policy.request_burst = 100000.0;
    tenant.policy.tool_seconds_rate = 1e8;
    tenant.policy.tool_seconds_burst = 1e9;
    tenant.policy.queue_cap = 1000000;
    config.tenants.push_back(std::move(tenant));
  }
  d.server = std::make_unique<serve::Server>(std::move(config));
  std::string error;
  if (!d.server->start(error)) throw std::runtime_error("serve start: " + error);
  serve::Client client;
  if (!client.connect(paths.socket, error) || !client.ping(error)) {
    throw std::runtime_error("first ping: " + error);
  }
  d.setup_s = now_s() - t0;
  d.setup_cpu_s = process_cpu_s() - cpu0;
  return d;
}

void stop_daemon(Daemon& d) {
  d.server->drain();
  d.server->wait();
  d.server.reset();
}

/// Stats-op snapshot of what the per-layer table needs.
struct OpStats {
  std::size_t shed = 0, queued = 0, store_hits = 0, store_appends = 0, fresh_runs = 0;
  std::vector<double> tenant_tool_seconds = std::vector<double>(3, 0.0);
};

OpStats stats_op(serve::Client& client) {
  OpStats s;
  std::string json_text, error;
  util::Json json;
  if (!client.stats(json_text, error) || !util::Json::parse(json_text, json) || !json.is_object()) {
    throw std::runtime_error("stats op failed: " + error);
  }
  const auto& root = json.as_object();
  auto num = [](const util::JsonObject& o, const char* key) {
    const auto it = o.find(key);
    return it != o.end() && it->second.is_number() ? it->second.as_number() : 0.0;
  };
  s.shed = static_cast<std::size_t>(num(root, "shed"));
  s.queued = static_cast<std::size_t>(num(root, "queued"));
  const auto& broker = root.at("broker").as_object();
  s.store_hits = static_cast<std::size_t>(num(broker, "store_hits"));
  s.store_appends = static_cast<std::size_t>(num(broker, "store_appends"));
  s.fresh_runs = static_cast<std::size_t>(num(broker, "fresh_runs"));
  for (const auto& tenant : root.at("tenants").as_array()) {
    const auto& o = tenant.as_object();
    for (int t = 0; t < 3; ++t) {
      if (o.at("name").as_string() == kTenants[t]) s.tenant_tool_seconds[t] = num(o, "tool_seconds");
    }
  }
  return s;
}

/// Checks every answer against the reference (outside the timed window).
/// Answers other than ok/failed, and missing answers, count too.
class ServeOracle {
 public:
  ServeOracle(const core::ProjectConfig& project, const Universe& universe)
      : reference_(project), universe_(universe) {}

  Reference& reference() { return reference_; }

  [[nodiscard]] bool matches(const Rec& rec) {
    using S = serve::ResponseStatus;
    if (rec.status != static_cast<std::uint8_t>(S::kOk) &&
        rec.status != static_cast<std::uint8_t>(S::kFailed)) {
      return false;
    }
    const core::EvalResult& ref = reference_.get(universe_.point(rec.plan.point));
    const bool ok = rec.status == static_cast<std::uint8_t>(S::kOk);
    return ok == ref.ok && (!ok || rec.metrics == metrics_hash(ref.metrics.values));
  }

  void check(const LoadClient& client, Report& report) {
    std::vector<core::DesignPoint> points;
    for (std::size_t i = 0; i < client.sent(); ++i) {
      points.push_back(universe_.point(client.rec(i).plan.point));
    }
    reference_.precompute(points, 4);
    std::size_t failed_answers = 0;
    for (std::size_t i = 0; i < client.sent(); ++i) {
      const Rec& rec = client.rec(i);
      ++report.attempted;
      failed_answers += rec.status == static_cast<std::uint8_t>(serve::ResponseStatus::kFailed);
      if (!matches(rec)) {
        report.fail("request r" + std::to_string(i) +
                    (rec.status == kNoAnswer ? " got no answer"
                                             : " status " + std::to_string(rec.status) +
                                                   " differs from the reference"));
      }
    }
    if (failed_answers > 0) {
      report.notes.push_back(std::to_string(failed_answers) +
                             " answers were tool failures (matching the reference)");
    }
  }

 private:
  Reference reference_;
  const Universe& universe_;
};

/// One max_rps search step passes when every request is answered ok, the
/// p99 (from due time) meets the limit, the backlog does not grow (the
/// median latency of the step's last quarter stays near its first
/// quarter's) and the generator offered at least 95% of the rate.
bool step_passes(const LoadClient& client, std::pair<std::size_t, std::size_t> range,
                 double rate) {
  const PhaseStats s = phase_stats(client, range);
  if (s.answered_ok != s.count || s.count < 8) return false;
  const std::size_t quarter = s.count / 4;
  const std::vector<double> first(s.latency_ms.begin(), s.latency_ms.begin() + quarter);
  const std::vector<double> last(s.latency_ms.end() - quarter, s.latency_ms.end());
  const double span = client.rec(range.second - 1).sent - client.rec(range.first).due;
  const double offered = static_cast<double>(s.count - 1) / std::max(span, 1e-9);
  return quantile(s.latency_ms, 0.99) <= kLatencyLimitMs &&
         median(last) <= 4.0 * median(first) + 1.0 && offered >= 0.95 * rate;
}

/// Highest rate that passes a step: a geometric ramp from the peak rate,
/// then geometric bisection between the last passing and the first failing
/// rate down to 3%.
double search_max_rps(LoadClient& client, Stream& stream, double seconds_left,
                      std::vector<std::string>& notes, std::size_t& steps) {
  const double step_s = std::max(0.3, seconds_left / kSearchSteps);
  auto passes = [&](double rate) {
    if (rate * step_s > static_cast<double>(client.remaining())) {
      throw std::runtime_error("max_rps search ran past the request capacity");
    }
    ++steps;
    return step_passes(client, client.run_phase(stream, rate, step_s, 10.0), rate);
  };
  const double deadline = now_s() + seconds_left;
  double lo = 0.0, hi = 0.0;
  double rate = kPeakRate;
  while (hi == 0.0 && now_s() < deadline) {
    if (passes(rate)) {
      lo = rate;
      rate *= 1.4;
    } else {
      hi = rate;
    }
  }
  while (lo == 0.0 && hi > 500.0 && now_s() < deadline) {
    rate = hi / 1.5;
    if (passes(rate)) lo = rate;
    else hi = rate;
  }
  while (lo > 0.0 && hi > 0.0 && hi / lo > 1.03 && now_s() < deadline) {
    rate = std::sqrt(lo * hi);
    if (passes(rate)) lo = rate;
    else hi = rate;
  }
  if (hi == 0.0) notes.push_back("max_rps search ended before any step failed");
  return lo;
}

}  // namespace

void run_serve_mix(const RunOptions& options, Report& report) {
  const core::ProjectConfig project = fifo_project(options.rtl_dir);
  const Paths paths = fresh_paths(options.work_dir + "/serve");

  const double nominal_s = 0.5 * options.seconds;
  const double peak_s = 0.2 * options.seconds;
  const double search_s = options.seconds - nominal_s - peak_s;
  // Store-hit requests need distinct points: size the store for a fifth of
  // the requests an untraced run sends, counting the search steps at ~10k
  // req/s (a traced run sends fewer). Past that, store-class requests of
  // the search become fresh ones. Both modes draw the same inputs.
  const double planned = kNominalRate * nominal_s + kPeakRate * peak_s + 10000.0 * search_s;
  const Universe universe = make_universe(options.seed, static_cast<std::size_t>(0.22 * planned));
  {
    Digest d;
    Stream probe(options.seed, universe);
    for (int i = 0; i < 20000; ++i) {
      const Planned p = probe.next();
      d.add(static_cast<std::int64_t>(p.point));
      d.add(static_cast<std::int64_t>(p.tenant * 8 + p.cat));
    }
    for (std::size_t i = 0; i < kHotPoints + universe.stored; ++i) {
      for (const std::int32_t v : universe.grid[i]) d.add(v);
    }
    report.digest = d.hex();
  }
  prepopulate(project, universe, paths.store);
  if (options.trace) install_decorators();

  // Set-up is timed alone in the process: no other thread of it runs.
  std::vector<double> setups, setup_cpu, setup_kernel;
  Daemon daemon;
  for (std::size_t i = 0; i < kSetups; ++i) {
    setup_kernel.push_back(calibrate(1, 5));
    daemon = start_daemon(project, paths);
    setups.push_back(daemon.setup_s);
    setup_cpu.push_back(daemon.setup_cpu_s);
    if (i + 1 < kSetups) stop_daemon(daemon);
  }

  Stream stream(options.seed, universe);
  ServeOracle oracle(project, universe);
  serve::Client control;
  std::string error;
  if (!control.connect(paths.socket, error)) throw std::runtime_error("connect: " + error);
  const std::size_t capacity = static_cast<std::size_t>(planned * 2.0) + 4096;
  auto client = std::make_unique<LoadClient>(paths.socket, universe, capacity);

  // Warm the hot set (the cache a long-running daemon has), untimed.
  for (std::size_t i = 0; i < kHotPoints; ++i) {
    serve::Response response;
    if (!control.eval(kTenants[0], universe.point(i), 0.0, response, error, 30000)) {
      throw std::runtime_error("warm-up: " + error);
    }
  }

  if (!options.trace) {
    const auto nominal = client->run_phase(stream, kNominalRate, nominal_s);
    const auto peak = client->run_phase(stream, kPeakRate, peak_s);
    const std::vector<double> cpu_ms = client->cpu_ms_per_request(nominal);
    const double kernel_s = client->kernel_s(nominal);
    if (kernel_s <= 0.0) throw std::runtime_error("no calibration kernel run ended in the nominal phase");
    // Before the search: how far it ramps (and so how many points the
    // daemon caches) depends on the machine, the fixed phases do not.
    const double rss = peak_rss_mb();
    std::size_t steps = 0;
    const double max_rps = search_max_rps(*client, stream, search_s, report.notes, steps);
    client->stop();
    control.close();
    stop_daemon(daemon);
    oracle.check(*client, report);

    const PhaseStats n = phase_stats(*client, nominal);
    const PhaseStats p = phase_stats(*client, peak);
    const std::string due = "host; eval latency from each request's due time";
    const std::string setup_note =
        "store open + Server construction + start() until the first ping, median of " +
        std::to_string(kSetups);
    put(report.end_to_end, "setup_s", at_reference_speed(median(setup_cpu), median(setup_kernel)),
        "s", setups.size(), "process CPU time (steal excluded) at the reference host speed; " + setup_note);
    put(report.end_to_end, "setup_wall_s", median(setups), "s", setups.size(), "host; " + setup_note);
    const Summary tail = summarize(n.latency_ms);
    put(report.end_to_end, "lat_p50_ms", median(n.window_p50_ms), "ms", n.latency_ms.size(),
        due + " at " + std::to_string(static_cast<int>(kNominalRate)) +
            " req/s; median of the per-second medians");
    put(report.end_to_end, "lat_p99_ms", quantile(n.latency_ms, 0.99), "ms", n.latency_ms.size(),
        due + " at " + std::to_string(static_cast<int>(kNominalRate)) + " req/s; highest tail with" +
            " 10 samples beyond: " + tail.tail_name + " = " + std::to_string(tail.tail) + " ms");
    put(report.end_to_end, "lat_p99_ms.peak", quantile(p.latency_ms, 0.99), "ms",
        p.latency_ms.size(), due + " at " + std::to_string(static_cast<int>(kPeakRate)) + " req/s");
    put(report.end_to_end, "max_rps", max_rps, "1/s", steps,
        "highest offered rate with p99 <= " + std::to_string(static_cast<int>(kLatencyLimitMs)) +
            " ms, no growing backlog, every answer ok");
    const std::string windows = " per request at " + std::to_string(static_cast<int>(kNominalRate)) +
                                " req/s, median over windows of " +
                                std::to_string(LoadClient::kCpuWindow) + " requests";
    put(report.end_to_end, "cpu_ms", at_reference_speed(median(cpu_ms), kernel_s), "ms",
        cpu_ms.size(), "daemon CPU time (steal excluded) at the reference host speed" + windows);
    put(report.end_to_end, "cpu_raw_ms", median(cpu_ms), "ms", cpu_ms.size(),
        "daemon CPU time (steal excluded) as measured" + windows);
    put(report.end_to_end, "kernel_ms", kernel_s * 1e3, "ms", 1,
        "CPU time of the calibration kernel, median over the nominal phase (reference " +
            std::to_string(kReferenceKernelS * 1e3) + " ms)");
    put(report.end_to_end, "tool_s", n.tool_seconds / static_cast<double>(std::max<std::size_t>(1, n.count)),
        "s", n.count, "simulated tool-seconds paid per request at the nominal rate");
    put(report.end_to_end, "peak_rss_mb", rss, "MB", 1, "after the peak phase; daemon and load generator share the process");
    put(report.per_layer, "bench.gen_lag_p99_ms", quantile(n.lag_ms, 0.99), "ms", n.lag_ms.size(),
        "generator lateness at the nominal rate");
    return;
  }

  // Traced run. Baseline: the nominal phase with the tracer off (the
  // decorators are installed but idle); then the same rate traced, with a
  // probe connection sending pings every 10 ms and a stats op every 100 ms.
  const auto base = client->run_phase(stream, kNominalRate, nominal_s);
  Tracer& tracer = Tracer::get();
  tracer.enable();
  std::atomic<bool> probing{true};
  std::vector<double> ping_us;
  std::size_t queue_max = 0;
  std::string probe_error;
  std::thread probe([&] {
    try {
      serve::Client pc;
      std::string err;
      if (!pc.connect(paths.socket, err)) throw std::runtime_error("probe connect: " + err);
      for (int k = 0; probing.load(); ++k) {
        const double t0 = now_s();
        if (!pc.ping(err)) throw std::runtime_error("probe ping: " + err);
        const double t1 = now_s();
        ping_us.push_back((t1 - t0) * 1e6);
        tracer.record(Span{"serve.ping", tracer.next_id(), 0, t0, t1, thread_index()});
        if (k % 10 == 0) queue_max = std::max(queue_max, stats_op(pc).queued);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    } catch (const std::exception& e) {
      probe_error = e.what();
    }
  });
  const auto traced = client->run_phase(stream, kNominalRate, nominal_s);
  const OpStats before_peak = stats_op(control);
  const auto peak = client->run_phase(stream, kPeakRate, peak_s);
  const OpStats after_peak = stats_op(control);
  probing.store(false);
  probe.join();
  tracer.disable();
  if (!probe_error.empty()) {
    ++report.attempted;
    report.fail(probe_error);
  }
  const core::BrokerStats broker = daemon.server->stats().broker;
  client->stop();
  control.close();
  stop_daemon(daemon);
  oracle.check(*client, report);

  // Client spans: one per request, from send to answer, named by the
  // answer's cache_hit / store_hit flags.
  std::map<std::string, std::vector<double>> by_class;
  std::size_t traced_sent = 0, traced_answered = 0, cache_hits = 0;
  std::vector<core::DesignPoint> fresh_points;
  for (const auto& range : {traced, peak}) {
    for (std::size_t i = range.first; i < range.second; ++i) {
      const Rec& r = client->rec(i);
      ++traced_sent;
      if (r.status == kNoAnswer) continue;
      ++traced_answered;
      const char* name = r.cache_hit ? "serve.hit" : (r.store_hit ? "serve.store_hit" : "serve.fresh");
      cache_hits += r.cache_hit;
      if (!r.cache_hit && !r.store_hit && fresh_points.size() < 200) {
        fresh_points.push_back(universe.point(r.plan.point));
      }
      by_class[name].push_back((r.done - r.sent) * 1e6);
      tracer.record(Span{name, tracer.next_id(), 0, r.sent, r.done, 0});
    }
  }
  const std::string client_span = "in-run client spans, send to answer";
  for (const char* cls : {"hit", "store_hit", "fresh"}) {
    const auto& v = by_class[std::string("serve.") + cls];
    put(report.per_layer, std::string("serve.") + cls + "_us.p50", quantile(v, 0.5), "us", v.size(),
        client_span);
    put(report.per_layer, std::string("serve.") + cls + "_us.p99", quantile(v, 0.99), "us",
        v.size(), client_span);
  }
  put(report.per_layer, "serve.ping_us.p50", quantile(ping_us, 0.5), "us", ping_us.size());
  put(report.per_layer, "serve.ping_us.p99", quantile(ping_us, 0.99), "us", ping_us.size());
  put(report.per_layer, "serve.shed", static_cast<double>(after_peak.shed), "count", 1, "stats op");
  put(report.per_layer, "serve.queue_max", static_cast<double>(queue_max), "count", 1,
      "largest queued total seen by the stats op, sampled every 100 ms");
  double total = 0.0, share_err = 0.0;
  for (int t = 0; t < 3; ++t) {
    total += after_peak.tenant_tool_seconds[t] - before_peak.tenant_tool_seconds[t];
  }
  for (int t = 0; t < 3; ++t) {
    const double share =
        total > 0 ? (after_peak.tenant_tool_seconds[t] - before_peak.tenant_tool_seconds[t]) / total : 0;
    share_err = std::max(share_err, std::fabs(share - kWeights[t] / 7.0));
  }
  put(report.per_layer, "serve.share_err", share_err, "ratio", 3,
      "max |tenant tool-second share - weight share| over the peak phase");
  put(report.per_layer, "store.hits", static_cast<double>(after_peak.store_hits), "count", 1, "stats op");
  put(report.per_layer, "store.appends", static_cast<double>(after_peak.store_appends), "count", 1,
      "stats op");
  put(report.per_layer, "core.fresh_runs", static_cast<double>(after_peak.fresh_runs), "count", 1,
      "stats op");
  put(report.per_layer, "core.cache_hits", static_cast<double>(cache_hits), "count", traced_sent,
      "answers flagged cache_hit in the traced phases");
  put(report.per_layer, "core.lease_waits", static_cast<double>(broker.lease_waits), "count", 1,
      "BrokerStats");
  put(report.per_layer, "core.utilization", broker.utilization, "ratio", 1, "BrokerStats");

  std::vector<double> flow;
  double flow_busy = 0.0;
  for (const auto& s : tracer.spans()) {
    if (std::string(s.name) != "edatool.run_flow") continue;
    flow.push_back((s.t1 - s.t0) * 1e6);
    flow_busy += (s.t1 - s.t0) * 1e3;
  }
  put(report.per_layer, "edatool.run_flow.calls", static_cast<double>(flow.size()), "count", 1,
      "in-run decorator, traced phases (the fresh path)");
  put(report.per_layer, "edatool.run_flow.busy_ms", flow_busy, "ms", flow.size());
  put(report.per_layer, "edatool.run_flow.p50_us", quantile(flow, 0.5), "us", flow.size());
  put(report.per_layer, "edatool.run_flow.p99_us", quantile(flow, 0.99), "us", flow.size());
  put(report.per_layer, "edatool.run_flow.failed", static_cast<double>(decorated_flow_failures()),
      "count", flow.size(), "failed tool runs in the traced phases");

  const PhaseStats b = phase_stats(*client, base);
  const PhaseStats t = phase_stats(*client, traced);
  put(report.per_layer, "trace.overhead_pct",
      (median(t.latency_ms) / median(b.latency_ms) - 1.0) * 100.0, "%", t.latency_ms.size(),
      "traced vs untraced nominal-phase p50 latency");
  put(report.per_layer, "trace.coverage",
      static_cast<double>(traced_answered) / static_cast<double>(std::max<std::size_t>(1, traced_sent)),
      "ratio", traced_sent, "share of traced requests whose client span closed");
  put(report.per_layer, "bench.gen_lag_p99_ms", quantile(t.lag_ms, 0.99), "ms", t.lag_ms.size(),
      "generator lateness at the nominal rate");

  // Replays of the durability layers on the workload's own records.
  std::vector<double> open_ms, lookup_us, append_us, journal_us;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    auto opened = store::EvalStore::open_writer(paths.store);
    open_ms.push_back((now_s() - t0) * 1e3);
    if (!opened.store) throw std::runtime_error("store reopen: " + opened.error);
    if (i > 0) continue;
    std::vector<store::StoreRecord> records;
    for (std::size_t k = 0; k < std::min<std::size_t>(500, universe.stored); ++k) {
      std::optional<store::StoreRecord> rec;
      const double l0 = now_s();
      rec = opened.store->lookup(universe.point(kHotPoints + k), "vivado-sim", store::EvalStore::kTierHifi);
      lookup_us.push_back((now_s() - l0) * 1e6);
      if (rec && records.size() < 200) records.push_back(*rec);
    }
    auto scratch = store::EvalStore::open_writer(paths.dir + "/replay.dvstor");
    if (!scratch.store) throw std::runtime_error("scratch store: " + scratch.error);
    std::unique_ptr<core::SessionJournal> journal =
        core::SessionJournal::open(paths.dir + "/replay.jsonl", nullptr, error);
    if (!journal) throw std::runtime_error("scratch journal: " + error);
    for (const auto& rec : records) {
      const double a0 = now_s();
      (void)scratch.store->append(rec);
      append_us.push_back((now_s() - a0) * 1e6);
      core::JournalRecord jr;
      jr.params = rec.params;
      jr.metrics.values = rec.metrics;
      jr.ok = rec.ok;
      jr.tool_seconds = rec.tool_seconds;
      const double j0 = now_s();
      (void)journal->append(jr);
      journal_us.push_back((now_s() - j0) * 1e6);
    }
  }
  const std::string replay = "replay on the workload's own store records, fsync per record";
  put(report.per_layer, "store.open_ms", median(open_ms), "ms", open_ms.size(),
      "replay: open_writer on the workload's store after the run");
  put(report.per_layer, "store.lookup_us", median(lookup_us), "us", lookup_us.size(), "replay");
  put(report.per_layer, "store.append_us.p50", quantile(append_us, 0.5), "us", append_us.size(), replay);
  put(report.per_layer, "store.append_us.p99", quantile(append_us, 0.99), "us", append_us.size(), replay);
  put(report.per_layer, "journal.append_us.p50", quantile(journal_us, 0.5), "us", journal_us.size(),
      replay);
  put(report.per_layer, "journal.append_us.p99", quantile(journal_us, 0.99), "us",
      journal_us.size(), replay);
  PipelineSamples pipeline;
  pipeline.add(project, fresh_points);
  pipeline.report(report);
  const std::string trace_path = options.work_dir + "/trace-serve-mix.json";
  if (tracer.write_chrome(trace_path)) report.notes.push_back("chrome trace: " + trace_path);
}

}  // namespace perfbench

namespace perfbench {

void selftest_serve(const RunOptions& options, Checks& checks) {
  auto stream_of = [](std::uint64_t seed, const Universe& u) {
    Stream stream(seed, u);
    std::vector<std::tuple<std::uint32_t, int, int>> out;
    for (int i = 0; i < 7000; ++i) {
      const Planned p = stream.next();
      out.emplace_back(p.point, p.tenant, p.cat);
    }
    return out;
  };
  const Universe u7 = make_universe(7, 2000);
  const Universe u7b = make_universe(7, 2000);
  const Universe u8 = make_universe(8, 2000);
  checks.expect(u7.grid == u7b.grid && stream_of(7, u7) == stream_of(7, u7b),
                "same seed gives an identical request stream");
  checks.expect(stream_of(8, u8) != stream_of(7, u7), "another seed gives another request stream");
  std::size_t counts[3] = {0, 0, 0};
  for (const auto& [point, tenant, cat] : stream_of(7, u7)) ++counts[cat];
  checks.expect(counts[kHot] == 4200 && counts[kStored] == 1400 && counts[kFresh] == 1400,
                "every 70 requests hold 60% hot, 20% stored, 20% fresh");

  const core::ProjectConfig project = fifo_project(options.rtl_dir);
  ServeOracle oracle(project, u7);
  Rec rec;
  rec.plan.point = 3;
  rec.status = static_cast<std::uint8_t>(serve::ResponseStatus::kOk);
  rec.metrics = metrics_hash(oracle.reference().get(u7.point(3)).metrics.values);
  const bool accepted = oracle.matches(rec);
  oracle.reference().corrupt(u7.point(3));
  checks.expect(accepted && !oracle.matches(rec), "oracle catches a corrupted reference answer");
  Rec missing;
  checks.expect(!oracle.matches(missing), "oracle counts a missing answer as wrong");

  // A short phase against a live daemon with the generator stalled once
  // for 50 ms: the lateness must show in the report.
  const Paths paths = fresh_paths(options.work_dir + "/selftest");
  Daemon daemon = start_daemon(project, paths);
  {
    LoadClient client(paths.socket, u7, 2000);
    Stream stream(7, u7);
    const auto range = client.run_phase(stream, 2000.0, 0.25, 30.0, 100);
    const PhaseStats s = phase_stats(client, range);
    checks.expect(s.answered_ok == s.count, "every request of the stalled phase is answered");
    checks.expect(quantile(s.lag_ms, 0.99) >= 25.0, "a 50 ms generator stall shows in gen_lag p99");
    client.stop();
  }
  stop_daemon(daemon);
  std::filesystem::remove_all(paths.dir);
}

}  // namespace perfbench
