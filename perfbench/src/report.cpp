#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

void Sheet::set(const std::string& name, double value, const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool Sheet::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

bool Sheet::all_finite() const {
  return std::all_of(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return std::isfinite(e.value); });
}

double Sheet::get(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::out_of_range("perfbench: no metric " + name);
}

std::string Sheet::to_json() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    // A non-finite value is not JSON; the gate fails such a run (all_finite).
    const double v = std::isfinite(e.value) ? e.value : -1.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": " << buf << ", \"unit\": \""
       << e.unit << "\"}";
  }
  os << '}';
  return os.str();
}

bool Gate::check(bool ok, const std::string& what) {
  if (ok) return true;
  std::lock_guard<std::mutex> lk(mu_);
  if (failed_ < 20) std::cerr << "[perfbench] CORRECTNESS FAILURE: " << what << "\n";
  ++failed_;
  return false;
}

std::int64_t Gate::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_;
}

int Tracer::add(const char* name, Clock::time_point start, Clock::time_point end, int parent,
                std::int64_t request) {
  if (!enabled_) return -1;
  const auto tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, us_between(origin_, start), us_between(origin_, end), parent, request,
                    static_cast<std::uint64_t>(tid)});
  return static_cast<int>(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write trace " + path);
  // Thread ids are hashed; map them to small integers for the viewer.
  std::vector<std::uint64_t> threads;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    auto it = std::find(threads.begin(), threads.end(), s.thread);
    if (it == threads.end()) it = threads.insert(threads.end(), s.thread);
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"request\": %lld}}",
                  s.name, static_cast<int>(it - threads.begin()), s.start_us,
                  s.end_us - s.start_us, i, s.parent, static_cast<long long>(s.request));
    out << buf << (i + 1 == spans_.size() ? "\n" : ",\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
