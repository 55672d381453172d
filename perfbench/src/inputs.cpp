#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "core/rng.hpp"
#include "envs/abr/policy.hpp"
#include "envs/cjs/job.hpp"

namespace perfbench {

namespace abr = netllm::abr;
namespace cjs = netllm::cjs;
namespace vp = netllm::vp;

namespace {

// Upper bounds on how fast the closed-loop clients can consume inputs, so a
// run never runs dry even if the program gets several times faster.
constexpr double kMaxWideDecisionsPerS = 300.0;
constexpr double kMaxAbrPerS = 300.0;
constexpr double kMaxCjsPerS = 200.0;
constexpr double kMaxAdaptStepsPerS = 800.0;
constexpr std::size_t kWarmup = 6;  // vp_steady warm-up windows

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Windows of the paper's default VP test setting (hw 2 s / pw 4 s on the
/// Jin2022 generator: 10 history samples, 20 future). The trace seed comes
/// from the workload seed; the trace count grows until `n` windows exist.
std::vector<vp::VpSample> test_windows(std::uint64_t seed, std::size_t n) {
  auto setting = vp::vp_default_test();
  setting.seed = splitmix(setting.seed ^ seed);
  setting.num_traces = std::max<int>(setting.num_traces, static_cast<int>(n / 50) + 2);
  auto all = vp::build_dataset(setting);
  if (all.size() < n) throw std::logic_error("perfbench: VP test setting too small");
  netllm::core::Rng rng(splitmix(seed ^ 0x77696e646f77ULL));
  const auto order = rng.permutation(all.size());
  std::vector<vp::VpSample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(all[order[i]]));
  return out;
}

/// Arrival times of a Poisson process of `rate` over [0, seconds),
/// conditioned on its expected count: that many uniform times, sorted. The
/// offered load is then the same for every seed; only its timing varies.
std::vector<double> poisson_times(netllm::core::Rng& rng, double rate, double seconds) {
  std::vector<double> t(static_cast<std::size_t>(std::llround(rate * seconds)));
  for (auto& x : t) x = rng.uniform(0.0, seconds);
  std::sort(t.begin(), t.end());
  return t;
}

/// BBA wrapped so every observation, chunk result and QoE is recorded.
class RecordingBba final : public abr::AbrPolicy {
 public:
  explicit RecordingBba(std::vector<AbrEvent>& out) : out_(out) {}
  std::string name() const override { return "recording-bba"; }
  void begin_session() override { start_ = true; }
  int choose_level(const abr::Observation& obs) override {
    AbrEvent ev;
    ev.obs = obs;
    ev.session_start = start_;
    start_ = false;
    out_.push_back(std::move(ev));
    return bba_.choose_level(obs);
  }
  void observe_result(const abr::ChunkResult& result, double qoe) override {
    out_.back().result = result;
    out_.back().qoe = qoe;
    bba_.observe_result(result, qoe);
  }

 private:
  std::vector<AbrEvent>& out_;
  netllm::baselines::Bba bba_;
  bool start_ = false;
};

std::vector<AbrEvent> abr_sessions(std::uint64_t seed, std::size_t n) {
  const auto setting = abr::abr_default_test();
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);
  std::vector<AbrEvent> out;
  RecordingBba rec(out);
  auto trace = static_cast<std::size_t>(splitmix(seed ^ 0x616272ULL) % traces.size());
  while (out.size() < n) {
    abr::run_session(rec, video, traces[trace]);
    trace = (trace + 1) % traces.size();
  }
  return out;
}

/// FIFO episodes of the default CJS test workload. They do not depend on
/// the workload seed: a CJS decision's cost grows with the jobs in the
/// system, so seeded episodes would make the mixed load itself vary.
std::vector<CjsEvent> cjs_episodes(std::size_t n) {
  std::vector<CjsEvent> out;
  netllm::baselines::FifoScheduler fifo;
  for (std::uint64_t episode = 0; out.size() < n; ++episode) {
    auto cfg = cjs::cjs_default_test();
    cfg.seed += episode;
    std::vector<cjs::Decision> decisions;
    cjs::run_workload(cfg, fifo, &decisions);
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      out.push_back({std::move(decisions[i].obs), decisions[i].reward, i == 0});
    }
  }
  return out;
}

}  // namespace

Workload workload_from_name(const std::string& name) {
  for (auto w : {Workload::kVpSteady, Workload::kMixedFlashCrowd, Workload::kVpWideQ8,
                 Workload::kAdaptVp}) {
    if (name == workload_name(w)) return w;
  }
  throw std::invalid_argument("perfbench: unknown workload '" + name + "'");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kVpSteady: return "vp_steady";
    case Workload::kMixedFlashCrowd: return "mixed_flash_crowd";
    case Workload::kVpWideQ8: return "vp_wide_q8";
    case Workload::kAdaptVp: return "adapt_vp";
  }
  return "?";
}

Spec spec_for(Workload w) {
  Spec s;
  s.workload = w;
  switch (w) {
    case Workload::kVpSteady:
      s.vp_rate = 200.0;  // about half of what three lanes serve
      s.limit_ms = 50.0;
      break;
    case Workload::kMixedFlashCrowd:
      s.horizon = 4;
      s.limit_ms = 200.0;  // the engine's end-to-end deadline
      s.burst = 12;        // 1.5x max_queue = 8
      s.burst_rate = 150.0;
      s.hot_set = 16;      // below arena_prefix_entries = 32
      break;
    case Workload::kVpWideQ8:
      s.wide = true;
      s.limit_ms = 600.0;  // about 1.5x the measured p99 (340-410 ms)
      s.drain = 16;
      break;
    case Workload::kAdaptVp:
      s.limit_ms = 15.0;  // per training step: about 1.5x the measured p99 (10-11 ms)
      s.job_steps = 16;
      s.lr = 1e-3f;
      break;
  }
  return s;
}

Inputs make_inputs(Workload w, std::uint64_t seed, double seconds) {
  Inputs in;
  in.spec = spec_for(w);
  in.seed = seed;
  netllm::core::Rng rng(splitmix(seed ^ (static_cast<std::uint64_t>(w) << 56)));
  switch (w) {
    case Workload::kVpSteady: {
      for (double t : poisson_times(rng, in.spec.vp_rate, seconds)) {
        in.arrivals.push_back({t, static_cast<int>(in.arrivals.size())});
      }
      // No window repeats; a few extra ones warm the engine up.
      in.windows = test_windows(seed, in.arrivals.size() + kWarmup);
      for (std::size_t i = in.arrivals.size(); i < in.windows.size(); ++i) {
        in.warmup.push_back(static_cast<int>(i));
      }
      break;
    }
    case Workload::kMixedFlashCrowd: {
      in.windows = test_windows(seed, static_cast<std::size_t>(in.spec.hot_set));
      for (int i = 0; i < in.spec.hot_set; ++i) in.warmup.push_back(i);
      for (double t : poisson_times(rng, in.spec.burst_rate, seconds)) {
        for (int b = 0; b < in.spec.burst; ++b) {
          in.arrivals.push_back({t, static_cast<int>(rng.randint(0, in.spec.hot_set - 1))});
        }
      }
      in.abr = abr_sessions(seed, static_cast<std::size_t>(kMaxAbrPerS * seconds) + 1);
      in.cjs = cjs_episodes(static_cast<std::size_t>(kMaxCjsPerS * seconds) + 1);
      break;
    }
    case Workload::kVpWideQ8: {
      // The first spec.drain windows warm the engine up; the drains use the rest.
      in.windows = test_windows(
          seed, static_cast<std::size_t>(kMaxWideDecisionsPerS * seconds) + in.spec.drain);
      for (int i = 0; i < in.spec.drain; ++i) in.warmup.push_back(i);
      break;
    }
    case Workload::kAdaptVp: {
      in.train = vp::build_dataset(vp::vp_default_train());
      const auto jobs =
          static_cast<std::size_t>(kMaxAdaptStepsPerS * seconds / in.spec.job_steps) + 1;
      for (std::size_t j = 0; j < jobs; ++j) in.job_seeds.push_back(rng.next_u64());
      // A held-out set the gate scores before and after adaptation.
      in.windows = test_windows(seed, 16);
      break;
    }
  }
  return in;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  void floats(std::span<const float> xs) {
    pod(xs.size());
    if (!xs.empty()) bytes(xs.data(), xs.size() * sizeof(float));
  }
  void viewports(const std::vector<vp::Viewport>& vs) {
    pod(vs.size());
    for (const auto& v : vs) {
      pod(v.roll);
      pod(v.pitch);
      pod(v.yaw);
    }
  }
  void sample(const vp::VpSample& s) {
    viewports(s.history);
    viewports(s.future);
    floats(s.saliency.data());
  }
};

}  // namespace

std::uint64_t fingerprint(const Inputs& in) {
  Fnv f;
  f.pod(static_cast<int>(in.spec.workload));
  f.pod(in.seed);
  f.vec(in.warmup);
  for (const auto& a : in.arrivals) {
    f.pod(a.t_s);
    f.pod(a.window);
  }
  for (const auto& s : in.windows) f.sample(s);
  for (const auto& s : in.train) f.sample(s);
  f.vec(in.job_seeds);
  for (const auto& e : in.abr) {
    f.vec(e.obs.past_throughput_mbps);
    f.vec(e.obs.past_delay_s);
    f.vec(e.obs.next_chunk_sizes_mbytes);
    f.pod(e.obs.buffer_s);
    f.pod(e.obs.remaining_chunks_frac);
    f.pod(e.obs.num_levels);
    f.pod(e.result.delay_s);
    f.pod(e.result.rebuffer_s);
    f.pod(e.qoe);
    f.pod(e.session_start);
  }
  for (const auto& e : in.cjs) {
    f.floats(e.obs.node_features.data());
    f.vec(e.obs.runnable_rows);
    f.pod(e.obs.idle_executors);
    f.pod(e.obs.total_executors);
    f.pod(e.obs.jobs_in_system);
    f.pod(e.reward);
    f.pod(e.episode_start);
  }
  return f.h;
}

}  // namespace perfbench
