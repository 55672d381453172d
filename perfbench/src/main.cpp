// NetLLM benchmark. One run = one workload for --seconds:
//
//   netllm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics (and writes the run's spans as Chrome
// trace-event JSON under .bench_out/). Either way the correctness gate runs
// over every decision. The last stdout line is the result object; the line
// before it is the host stamp. `--selftest` checks that the generator is
// pure and that allocation counts repeat, and prints what it compared.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "alloc_count.hpp"
#include "core/threadpool.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "serving.hpp"
#include "tensor/isa.hpp"

namespace perfbench {
namespace {

// setup_s is the median of at least kMinSetups set-ups, repeated until
// kSetupSeconds have passed (at most kMaxSetups), half of them before the
// measured window and half after it.
constexpr int kMinSetups = 12, kMaxSetups = 1000;
constexpr double kSetupSeconds = 2.0;
constexpr int kSubWindows = 5;              // time slices of a run for e2e_p99_ms
constexpr double kMaxLatenessP99Ms = 20.0;  // generator lateness that voids a run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!a.selftest && a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) throw std::invalid_argument("bad --seconds");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Restricts the calling thread to one core.
void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v && *v ? v : fallback;
}

/// Stamp every result carries: host, ISA tier, build, pool size, commit,
/// seed and how late the open-loop generator ran.
std::string host_stamp(const Args& a, const Inputs& in, const std::vector<double>& lateness) {
  std::ostringstream os;
  os << "{\"host\": {\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
     << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"isa\": \"" << netllm::tensor::isa::isa_name(netllm::tensor::isa::active_isa())
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"netllm_threads\": " << netllm::core::global_threads() << ", \"commit\": \""
     << env_or("PERFBENCH_COMMIT", "unknown") << "\", \"inputs_fingerprint\": \"" << std::hex
     << fingerprint(in) << std::dec << "\", \"gen_lateness_ms_p50\": "
     << percentile(lateness, 50) << ", \"gen_lateness_ms_p99\": " << percentile(lateness, 99)
     << ", \"gen_lateness_bound_ms\": " << kMaxLatenessP99Ms << "}}";
  return os.str();
}

void merge(ServeLog& into, const ServeLog& from) {
  auto append = [](auto& to, const auto& src) { to.insert(to.end(), src.begin(), src.end()); };
  append(into.vp, from.vp);
  append(into.abr, from.abr);
  append(into.cjs, from.cjs);
  append(into.submit_us, from.submit_us);
  append(into.drain_ms, from.drain_ms);
  append(into.drain_size, from.drain_size);
}

bool primary(serve::Source s) { return s == serve::Source::kLlm || s == serve::Source::kRetried; }

/// A tail percentile that one host stall cannot move much: the median, over
/// kSubWindows equal time slices of the run, of each slice's percentile.
double sliced_percentile(const std::vector<double>& values, const std::vector<double>& t_s,
                         double seconds, double p) {
  std::vector<std::vector<double>> slices(kSubWindows);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto k = static_cast<std::size_t>(t_s[i] / seconds * kSubWindows);
    slices[std::min(k, slices.size() - 1)].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (const auto& s : slices) {
    if (!s.empty()) per_slice.push_back(percentile(s, p));
  }
  return median(per_slice);
}

/// End-to-end metrics of a serving window (VP decisions are the measured
/// unit; ABR/CJS decisions count towards decisions_per_s).
void serve_e2e(const ServeLog& log, const Spec& spec, double seconds, Sheet& sheet) {
  std::vector<double> e2e, t_s;
  std::int64_t within = 0;
  for (const auto& r : log.vp) {
    if (!primary(r.source) || r.rejected) continue;
    e2e.push_back(r.e2e_ms);
    t_s.push_back(r.t_s);
    if (r.e2e_ms <= spec.limit_ms) ++within;
  }
  const auto decisions =
      log.vp_tally.primary() + log.abr_tally.primary() + log.cjs_tally.primary();
  const double offered = static_cast<double>(std::max<std::int64_t>(log.vp_tally.offered, 1));
  sheet.set("e2e_p50_ms", percentile(e2e, 50), "ms");
  sheet.set("e2e_p99_ms", sliced_percentile(e2e, t_s, seconds, 99), "ms");
  sheet.set("decisions_per_s", static_cast<double>(decisions) / log.wall_s, "1/s");
  sheet.set("slo_attainment", static_cast<double>(within) / offered, "share");
  sheet.set("goodput_rps", static_cast<double>(within) / log.wall_s, "1/s");
}

/// End-to-end metrics of the adaptation jobs: a training step is the unit.
void adapt_e2e(const AdaptLog& log, const Spec& spec, double seconds, Sheet& sheet) {
  std::int64_t within = 0;
  for (double ms : log.step_ms) {
    if (ms <= spec.limit_ms) within += spec.job_steps;
  }
  within -= log.skipped;
  sheet.set("e2e_p50_ms", percentile(log.step_ms, 50), "ms");
  sheet.set("e2e_p99_ms", sliced_percentile(log.step_ms, log.job_t_s, seconds, 99), "ms");
  sheet.set("decisions_per_s", static_cast<double>(log.steps) / log.wall_s, "1/s");
  sheet.set("slo_attainment",
            static_cast<double>(within) / static_cast<double>(std::max<std::int64_t>(log.steps, 1)),
            "share");
  sheet.set("goodput_rps", static_cast<double>(within) / log.wall_s, "1/s");
}

/// Wall time of one Tracer::add, on a scratch tracer (median of batches).
double span_cost_us() {
  constexpr int kBatch = 1000;
  Tracer scratch(true);
  const auto t = Clock::now();
  return time_us(2, 15, [&] {
           for (int i = 0; i < kBatch; ++i) scratch.add("span", t, t, -1, i);
         }) /
         kBatch;
}

int selftest() {
  // 1. The generator is pure: the same (workload, seed) gives the same
  //    schedule and inputs twice; another seed gives other inputs.
  bool ok = true;
  for (auto w : {Workload::kVpSteady, Workload::kMixedFlashCrowd, Workload::kVpWideQ8,
                 Workload::kAdaptVp}) {
    const auto a = fingerprint(make_inputs(w, 1, 2.0));
    const auto b = fingerprint(make_inputs(w, 1, 2.0));
    const auto c = fingerprint(make_inputs(w, 2, 2.0));
    std::cout << "inputs " << workload_name(w) << " seed1 " << std::hex << a << " seed2 " << c
              << std::dec << "\n";
    if (a != b || a == c) {
      std::cerr << "[selftest] generator not pure for " << workload_name(w) << "\n";
      ok = false;
    }
  }
  // 2. Allocation counts of one replayed solo decision repeat exactly.
  for (auto w : {Workload::kVpSteady, Workload::kMixedFlashCrowd, Workload::kVpWideQ8,
                 Workload::kAdaptVp}) {
    const auto in = make_inputs(w, 1, 1.0);
    auto stack = build_stack(in.spec, netllm::core::global_threads());
    Sheet sheet;
    Gate gate;
    count_allocations(stack, in, sheet, gate);
    std::cout << "allocs " << workload_name(w) << " "
              << static_cast<std::int64_t>(sheet.get("mem.allocs_per_decision")) << " bytes "
              << static_cast<std::int64_t>(sheet.get("mem.alloc_bytes_per_decision")) << "\n";
    ok = ok && gate.failed() == 0;
  }
  std::cout << (ok ? "selftest ok" : "selftest FAILED") << "\n";
  return ok ? 0 : 1;
}

int run(const Args& args) {
  const auto w = workload_from_name(args.workload);
  const int lanes = netllm::core::global_threads();
  Gate gate;
  Tracer tracer(args.trace);
  Sheet sheet;

  // Inputs: a pure function of (workload, seed). Generating them twice and
  // comparing digests is part of the gate.
  const auto in = make_inputs(w, args.seed, args.seconds);
  gate.check(fingerprint(in) == fingerprint(make_inputs(w, args.seed, args.seconds)),
             "workload generator is not a pure function of (workload, seed)");
  const auto& spec = in.spec;

  // Set-up, several times, in two rounds: one before the measured window
  // (its last stack is the one measured) and one after it. A shared host
  // runs slow or fast for seconds at a time; two rounds half a minute apart
  // keep one such phase from deciding the median.
  std::vector<double> setup_s;
  Stack stack;
  // The set-ups rotate over every core this process may use: on a shared
  // host one slow core then cannot decide the median.
  cpu_set_t allowed;
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  auto setup_round = [&] {
    const auto start = Clock::now();
    for (int i = 0; i < kMaxSetups / 2; ++i) {
      if (i >= kMinSetups / 2 && ms_between(start, Clock::now()) > kSetupSeconds * 500.0) break;
      stack = Stack{};  // release the previous stack before building the next
      pin_to(cpus[static_cast<std::size_t>(i) % cpus.size()]);
      const auto t0 = Clock::now();
      stack = build_stack(spec, lanes);
      setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    sched_setaffinity(0, sizeof allowed, &allowed);
  };
  setup_round();

  const bool serving = w != Workload::kAdaptVp;
  if (serving) warm_up(*stack.engine, in, gate);
  auto serve_window = [&](double seconds, Tracer& tr) {
    return w == Workload::kVpWideQ8 ? run_drains(stack, in, seconds, tr, gate)
                                    : run_open_loop(stack, in, seconds, tr, gate);
  };
  std::vector<double> lateness;
  std::int64_t attempted = 0;  // decisions offered, or training steps run
  auto attempted_in = [](const ServeLog& l) {
    return l.vp_tally.offered + l.abr_tally.offered + l.cjs_tally.offered;
  };

  if (!args.trace) {
    Tracer off(false);
    if (serving) {
      const auto log = serve_window(args.seconds, off);
      lateness = log.lateness_ms;
      attempted += attempted_in(log);
      verify_serving(stack, in, log, gate);
      serve_e2e(log, spec, args.seconds, sheet);
    } else {
      const auto log = run_adapt(stack, in, args.seconds, off, gate);
      attempted += log.steps;
      adapt_e2e(log, spec, args.seconds, sheet);
    }
    setup_round();
    sheet.set("setup_s", median(setup_s), "s");
    sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // The whole window traced, then the layer profile on fixed repetitions.
    // ABR and CJS layers are profiled on the mixed workload's d64 adapters.
    const auto abr_cjs = make_inputs(Workload::kMixedFlashCrowd, args.seed, 1.0);
    Stack mixed_probe;
    if (w != Workload::kMixedFlashCrowd) {
      mixed_probe = build_stack(spec_for(Workload::kMixedFlashCrowd), lanes);
    }
    Stack& mixed = w == Workload::kMixedFlashCrowd ? stack : mixed_probe;
    std::size_t window_spans = 0;  // spans of the measured window alone
    if (serving) {
      const auto log = serve_window(args.seconds, tracer);
      window_spans = tracer.size();
      verify_serving(stack, in, log, gate);
      lateness = log.lateness_ms;
      attempted += attempted_in(log);
      serve_metrics(log, lanes, sheet);
      if (w != Workload::kMixedFlashCrowd) {
        task_metrics(run_probe(*mixed.engine, abr_cjs, 16, false, true, true, tracer, gate),
                     sheet);
      }
    } else {
      const StepHistogram steps;
      const auto log = run_adapt(stack, in, args.seconds, tracer, gate);
      window_spans = tracer.size();
      attempted += log.steps;
      sheet.set("adapt.steps_per_s", steps.per_s(), "1/s");
      sheet.set("adapt.final_loss", median(log.final_loss), "loss");
      // No serving traffic: serve.* and kv.* come from closed-loop probes of
      // the adapted VP model and of the mixed workload's ABR/CJS adapters.
      serve::InferenceEngine engine(stack.vp, nullptr, nullptr, engine_config(spec, lanes));
      auto probe = run_probe(engine, in, 32, true, false, false, tracer, gate);
      const auto abr_cjs_log =
          run_probe(*mixed.engine, abr_cjs, 16, false, true, true, tracer, gate);
      merge(probe, abr_cjs_log);
      probe.abr_tally = abr_cjs_log.abr_tally;
      probe.cjs_tally = abr_cjs_log.cjs_tally;
      serve_metrics(probe, lanes, sheet);
      gate.check(arena_drained(engine), "KV arena pages in use after the probe");
      stack.vp->set_kv_arena(nullptr);
      restore_initial(stack);
    }
    // Tracing adds one Tracer::add per span and nothing else, far less than
    // the run-to-run noise of a request's latency: it is reported as the
    // cost of one span times the spans recorded per decision offered.
    const double spans_per_decision = static_cast<double>(window_spans) /
                                      static_cast<double>(std::max<std::int64_t>(attempted, 1));
    sheet.set("trace.overhead_us", span_cost_us() * spans_per_decision, "us");
    profile_layers(stack, in, mixed, abr_cjs, lanes, sheet, gate);
    sheet.set("trace.spans", static_cast<double>(tracer.size()), "count");
    std::filesystem::create_directories(".bench_out");
    tracer.write_chrome_json(".bench_out/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json");
  }

  const std::string stamp = host_stamp(args, in, lateness);
  if (!lateness.empty() && percentile(lateness, 99) > kMaxLatenessP99Ms) {
    std::cout << stamp << "\n";
    std::cerr << "[perfbench] INVALID RUN: generator lateness p99 "
              << percentile(lateness, 99) << " ms exceeds " << kMaxLatenessP99Ms
              << " ms; the host could not keep the schedule\n";
    return 3;
  }
  gate.check(sheet.all_finite(), "a metric is not a finite number");
  for (const auto& name : {"setup_s", "e2e_p50_ms"}) {
    if (!args.trace) gate.check(sheet.has(name) && sheet.get(name) > 0.0, "metric is 0");
  }
  std::cout << stamp << "\n";
  std::cout << "{\"correct\": " << (gate.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<std::int64_t>(attempted, 1)
            << ", \"failed\": " << gate.failed()
            << ", \"metrics\": " << sheet.to_json() << "}" << std::endl;
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const auto args = perfbench::parse(argc, argv);
    return args.selftest ? perfbench::selftest() : perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "[perfbench] error: " << e.what() << "\n";
    return 2;
  }
}
