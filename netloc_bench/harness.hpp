// netloc_bench harness: fork-isolated timing, sample statistics, an
// in-memory span tracer with Chrome trace-event export, the result-file
// schema and the parent-vs-change comparison rules.
//
// Every timed iteration runs in a freshly forked child (ForkedChild):
// the child sends its numbers back as one JSON document over a pipe and
// wait4() reports the child's own peak RSS. The parent does no heavy
// work before forking, so each child starts as cold as a fresh CLI
// process — a warmed process runs the sweep measurably faster than a
// fresh one, which is not what users pay.
//
// All JSON goes through the in-repo serve::Json codec; nothing here
// escapes strings by hand.
#pragma once

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netloc/serve/json.hpp"

namespace netloc_bench {

using netloc::serve::Json;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// ---- forked children --------------------------------------------------------

/// One forked child running `body`. The body's JSON result travels back
/// over a pipe; finish() collects it together with the child's exit
/// status and peak RSS. A child that is never finished is killed and
/// reaped by the destructor, so no process outlives its owner.
class ForkedChild {
 public:
  explicit ForkedChild(const std::function<Json()>& body) {
    int fds[2];
    if (::pipe(fds) != 0) {
      error_ = "pipe() failed";
      return;
    }
    std::cout.flush();
    std::cerr.flush();
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      error_ = "fork() failed";
      return;
    }
    if (pid_ == 0) {
      ::close(fds[0]);
      // Die with the parent, however it ends: a killed benchmark must
      // not leave a sweep running.
      if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent) ::_exit(4);
      int code = 0;
      std::string text;
      try {
        text = body().dump();
      } catch (const std::exception& e) {
        Json failure = Json::object();
        failure.set("error", std::string(e.what()));
        text = failure.dump();
        code = 2;
      }
      std::size_t written = 0;
      while (written < text.size()) {
        const ssize_t n =
            ::write(fds[1], text.data() + written, text.size() - written);
        if (n <= 0) ::_exit(3);
        written += static_cast<std::size_t>(n);
      }
      ::close(fds[1]);
      // _exit: the child must not run the parent's atexit handlers or
      // flush its inherited stdio buffers a second time.
      ::_exit(code);
    }
    ::close(fds[1]);
    read_fd_ = fds[0];
  }

  ~ForkedChild() {
    if (pid_ > 0 && !finished_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (read_fd_ >= 0) ::close(read_fd_);
  }

  ForkedChild(const ForkedChild&) = delete;
  ForkedChild& operator=(const ForkedChild&) = delete;

  /// Read the child's result until EOF, then reap it. ok() is true only
  /// for a clean exit with a parseable result that carries no "error".
  void finish() {
    if (finished_ || pid_ <= 0) return;
    std::string text;
    char buffer[1 << 16];
    while (true) {
      const ssize_t n = ::read(read_fd_, buffer, sizeof(buffer));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      text.append(buffer, static_cast<std::size_t>(n));
    }
    int status = 0;
    struct rusage usage {};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    finished_ = true;
    // Linux reports ru_maxrss in kilobytes.
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    try {
      result_ = Json::parse(text);
    } catch (const std::exception& e) {
      error_ = std::string("unreadable child result: ") + e.what();
    }
    if (result_.is_object() && result_.find("error") != nullptr) {
      error_ = result_.get_string("error");
    }
    if (error_.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      error_ = WIFSIGNALED(status)
                   ? "child killed by signal " + std::to_string(WTERMSIG(status))
                   : "child exit code " + std::to_string(WEXITSTATUS(status));
    }
  }

  [[nodiscard]] bool ok() const { return finished_ && error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const Json& result() const { return result_; }
  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  int read_fd_ = -1;
  bool finished_ = false;
  Json result_;
  std::string error_;
  double peak_rss_mb_ = 0.0;
};

// ---- statistics -------------------------------------------------------------

/// Median and quartiles with the same interpolation as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method), so the
/// numbers here agree with any script that post-processes result files.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  const auto ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = cut[0];
  q.median = cut[1];
  q.q3 = cut[2];
  return q;
}

// ---- tracing ----------------------------------------------------------------

/// Spans kept in memory: name, start, end, thread, parent span and a
/// row/cell label. Thread-safe; spans nest per thread (a span opened
/// while another is open on the same thread becomes its child).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string label;
    double start_us = 0.0;
    double end_us = 0.0;
    int thread = 0;
    int parent = -1;  ///< Index of the enclosing span, -1 at top level.
  };

  Tracer() : origin_(Clock::now()) {}

  /// Open a span on the calling thread; returns its index for end().
  int begin(std::string name, std::string label = {}) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& stack = stacks_[std::this_thread::get_id()];
    Span span;
    span.name = std::move(name);
    span.label = std::move(label);
    span.start_us = now_us();
    span.thread = thread_index_locked();
    span.parent = stack.empty() ? -1 : stack.back();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack.push_back(id);
    return id;
  }

  /// Close span `id`; returns its duration in seconds.
  double end(int id) {
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_us = now_us();
    auto& stack = stacks_[std::this_thread::get_id()];
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    return (span.end_us - span.start_us) / 1e6;
  }

  /// Record a span that already finished `elapsed_s` ago, e.g. a job
  /// reported by an observer callback after it ran. It has no parent.
  void record(std::string name, std::string label, double elapsed_s) {
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = std::move(name);
    span.label = std::move(label);
    span.end_us = now_us();
    span.start_us = span.end_us - elapsed_s * 1e6;
    span.thread = thread_index_locked();
    spans_.push_back(std::move(span));
  }

  /// Spans as a JSON array of {name,label,start_us,end_us,thread,parent}.
  [[nodiscard]] Json to_json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Json out = Json::array();
    for (const Span& span : spans_) {
      Json entry = Json::object();
      entry.set("name", span.name);
      entry.set("label", span.label);
      entry.set("start_us", span.start_us);
      entry.set("end_us", span.end_us);
      entry.set("thread", span.thread);
      entry.set("parent", span.parent);
      out.push(std::move(entry));
    }
    return out;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  int thread_index_locked() {
    const auto [it, inserted] = threads_.try_emplace(
        std::this_thread::get_id(), static_cast<int>(threads_.size()));
    return it->second;
  }

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::vector<int>> stacks_;
  std::map<std::thread::id, int> threads_;
};

/// RAII span, ended by stop() or at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string label = {})
      : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(label))) {}
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// End the span now (idempotent); returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = tracer_.end(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  int id_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// Chrome trace-event JSON ("X" complete events, microseconds) for span
/// arrays produced by Tracer::to_json(), one trace process per entry.
/// Opens in chrome://tracing and the Perfetto UI.
inline Json chrome_trace(const std::vector<std::pair<std::string, Json>>& runs) {
  Json events = Json::array();
  int pid = 0;
  for (const auto& [workload, spans] : runs) {
    ++pid;
    Json meta = Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", pid);
    Json meta_args = Json::object();
    meta_args.set("name", workload);
    meta.set("args", std::move(meta_args));
    events.push(std::move(meta));
    for (const Json& span : spans.as_array()) {
      Json event = Json::object();
      event.set("name", span.get_string("name"));
      event.set("cat", workload);
      event.set("ph", "X");
      event.set("ts", span.get_number("start_us"));
      event.set("dur", span.get_number("end_us") - span.get_number("start_us"));
      event.set("pid", pid);
      event.set("tid", span.get_number("thread"));
      Json args = Json::object();
      args.set("label", span.get_string("label"));
      args.set("parent", span.get_number("parent"));
      event.set("args", std::move(args));
      events.push(std::move(event));
    }
  }
  Json trace = Json::object();
  trace.set("traceEvents", std::move(events));
  trace.set("displayTimeUnit", "ms");
  return trace;
}

// ---- metrics and the result schema -------------------------------------------

/// A metric definition. A change may worsen the metric's median by
/// max(bound x parent median, floor) before it counts as a regression:
/// bound is a share, floor an absolute amount in the metric's unit, so a
/// sub-millisecond time is not judged by its scheduling jitter. Per-layer
/// metrics carry no bound (0).
struct MetricSpec {
  const char* name;
  const char* unit;
  bool lower_is_better;
  double bound;
  double floor = 0.0;
};

/// One measured metric of one workload: the per-iteration samples.
struct Measurement {
  const MetricSpec* spec = nullptr;
  std::vector<double> samples;
};

/// What one workload run produced.
struct WorkloadResult {
  std::string name;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< One line per failed check.
  std::vector<Measurement> measurements;
  /// Traced run: [{"process", "spans"}], one entry per child.
  Json spans = Json::array();

  void fail(std::string why, std::int64_t operations = 1) {
    failed += operations;
    failures.push_back(std::move(why));
  }
  void add(const MetricSpec& spec, std::vector<double> samples) {
    measurements.push_back({&spec, std::move(samples)});
  }
  void add(const MetricSpec& spec, double value) {
    add(spec, std::vector<double>{value});
  }
};

inline Json measurement_json(const Measurement& m, bool end_to_end) {
  const Quartiles q = quartiles(m.samples);
  Json out = Json::object();
  out.set("name", m.spec->name);
  out.set("unit", m.spec->unit);
  out.set("layer", end_to_end ? "end_to_end" : "per_layer");
  out.set("better", m.spec->lower_is_better ? "lower" : "higher");
  out.set("bound", m.spec->bound);
  out.set("floor", m.spec->floor);
  out.set("median", q.median);
  out.set("q1", q.q1);
  out.set("q3", q.q3);
  out.set("n", static_cast<double>(q.n));
  Json samples = Json::array();
  for (const double v : m.samples) samples.push(v);
  out.set("samples", std::move(samples));
  return out;
}

// ---- comparison --------------------------------------------------------------

/// Runs per side before a gain can be claimed: the guide's ten
/// alternating parent/change runs.
constexpr std::size_t kRunsForGain = 10;

/// Verdict of one workload x metric pair under the benchmark's rules.
/// The values of a side are each result file's median (one value per
/// run) when it has several files, else the one run's iteration samples.
/// `allowed` below is max(bound x parent median, floor).
///  * counts must match exactly;
///  * a bounded metric whose parent spread (q3 - q1) exceeds `allowed`
///    is "unresolved", unless (with >= 10 runs per side) every change
///    run beats every parent run;
///  * a median worse by more than `allowed` is a regression;
///  * a gain needs `runs_per_side` >= 10, the change winning 9 in 10 of
///    the pairs, and the medians differing by more than the parent's
///    q3 - q1. With fewer runs only regression, no change or unresolved
///    is reported: iterations inside one run miss the host drift
///    between runs, so they cannot show a gain.
///  * per-layer metrics (no bound) are informational.
struct Verdict {
  std::string text;
  bool regression = false;
};

inline Verdict compare_metric(const Json& spec, const std::vector<double>& ps,
                              const std::vector<double>& cs,
                              std::size_t runs_per_side) {
  const std::string unit = spec.get_string("unit");
  const double bound = spec.get_number("bound");
  const Json* floor_field = spec.find("floor");
  const double floor = floor_field != nullptr ? floor_field->as_number() : 0.0;
  const bool lower = spec.get_string("better") != "higher";
  const Quartiles p = quartiles(ps);
  const Quartiles c = quartiles(cs);
  char delta[64];
  const double rel = p.median != 0.0 ? (c.median - p.median) / p.median : 0.0;
  std::snprintf(delta, sizeof(delta), "%+.2f%%", rel * 100.0);

  if (unit == "count") {
    const bool same = !ps.empty() && !cs.empty() &&
                      std::all_of(ps.begin(), ps.end(), [&](double v) { return v == ps[0]; }) &&
                      std::all_of(cs.begin(), cs.end(), [&](double v) { return v == ps[0]; });
    return same ? Verdict{"same", false} : Verdict{"CHANGED count " + std::string(delta), true};
  }
  if (bound <= 0.0) return {std::string("info ") + delta, false};

  const double allowed = std::max(bound * std::abs(p.median), floor);
  const double worse = lower ? c.median - p.median : p.median - c.median;
  const auto better = [lower](double a, double b) { return lower ? a < b : a > b; };
  bool all_better = false;
  bool gain = false;
  if (runs_per_side >= kRunsForGain) {
    const std::size_t pairs = std::min(ps.size(), cs.size());
    std::size_t wins = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      if (better(cs[i], ps[i])) ++wins;
    }
    const auto [pmin, pmax] = std::minmax_element(ps.begin(), ps.end());
    const auto [cmin, cmax] = std::minmax_element(cs.begin(), cs.end());
    all_better = better(lower ? *cmax : *cmin, lower ? *pmin : *pmax);
    gain = wins * 10 >= pairs * 9 && std::abs(c.median - p.median) > (p.q3 - p.q1) &&
           better(c.median, p.median);
  }
  if (p.q3 - p.q1 > allowed && !all_better) {
    return {std::string("unresolved ") + delta + " (spread above bound)", false};
  }
  if (worse > allowed) return {std::string("REGRESSION ") + delta, true};
  if (gain || all_better) return {std::string("gain ") + delta, false};
  return {std::string("no change ") + delta, false};
}

/// Compare result files (one or more runs per side) workload by
/// workload; prints one verdict per workload x metric and returns the
/// process exit code (1 on any regression, changed count, new failure or
/// missing metric).
inline int compare_results(const std::vector<Json>& parent,
                           const std::vector<Json>& change) {
  const auto find_named = [](const Json& list, const std::string& name) -> const Json* {
    for (const Json& item : list.as_array()) {
      if (item.get_string("name") == name) return &item;
    }
    return nullptr;
  };
  // The metric's values across the runs of one side; false if missing.
  const auto side_values = [&](const std::vector<Json>& runs, const std::string& workload,
                               const std::string& metric, double& failed,
                               std::vector<double>& values) {
    failed = 0.0;
    values.clear();
    for (const Json& run : runs) {
      const Json* w = find_named(run.at("workloads"), workload);
      const Json* m = w != nullptr ? find_named(w->at("metrics"), metric) : nullptr;
      if (m == nullptr) return false;
      failed += w->get_number("failed");
      if (runs.size() > 1) {
        values.push_back(m->get_number("median"));
      } else {
        for (const Json& v : m->at("samples").as_array()) values.push_back(v.as_number());
      }
    }
    return true;
  };
  bool regression = false;
  for (const Json& pw : parent.front().at("workloads").as_array()) {
    const std::string workload = pw.get_string("name");
    for (const Json& pm : pw.at("metrics").as_array()) {
      const std::string metric = pm.get_string("name");
      double parent_failed = 0.0;
      double change_failed = 0.0;
      std::vector<double> ps;
      std::vector<double> cs;
      if (!side_values(parent, workload, metric, parent_failed, ps) ||
          !side_values(change, workload, metric, change_failed, cs)) {
        std::cout << workload << " " << metric << " MISSING\n";
        regression = true;
        continue;
      }
      if (change_failed > parent_failed) {
        std::cout << workload << " " << metric << " REGRESSION more failures\n";
        regression = true;
        continue;
      }
      const Verdict verdict =
          compare_metric(pm, ps, cs, std::min(parent.size(), change.size()));
      regression = regression || verdict.regression;
      std::cout << workload << " " << metric << " " << verdict.text << "\n";
    }
  }
  return regression ? 1 : 0;
}

}  // namespace netloc_bench
