// Shared plumbing for the benchmark: clocks and percentiles, the
// metric sheet a run prints, the correctness gate, and the in-memory span
// recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }
double mean(const std::vector<double>& xs);

/// Calls `fn` `reps` times after `warm` untimed calls; returns the median
/// wall time of one call in microseconds.
template <typename Fn>
double time_us(int warm, int reps, Fn&& fn) {
  for (int i = 0; i < warm; ++i) fn();
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(us_between(t0, Clock::now()));
  }
  return median(std::move(us));
}

/// Metric sheet of one run, in insertion order.
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  /// True when every value is a finite number.
  bool all_finite() const;
  double get(const std::string& name) const;
  /// {"name": {"value": v, "unit": u}, ...} with every digit of v.
  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Correctness gate: every violated check is counted and the first few are
/// printed to stderr. A run with any violation reports correct=false.
class Gate {
 public:
  /// Counts a violation when `ok` is false; returns `ok`.
  bool check(bool ok, const std::string& what);
  std::int64_t failed() const;

 private:
  mutable std::mutex mu_;
  std::int64_t failed_ = 0;  // guarded by mu_
};

/// In-memory span recorder for the traced run: name, start, end, parent
/// span and request id, written at exit as Chrome trace-event JSON. A
/// disabled tracer records nothing and every call returns immediately.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  /// Records a finished span; returns its id (-1 when disabled).
  int add(const char* name, Clock::time_point start, Clock::time_point end, int parent = -1,
          std::int64_t request = -1);
  std::size_t size() const;
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us, end_us;
    int parent;
    std::int64_t request;
    std::uint64_t thread;
  };
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
