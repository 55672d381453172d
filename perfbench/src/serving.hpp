// The program under test, as each workload builds it, and the loops that
// drive it: open-loop serving, closed-loop drains, and adaptation jobs.
// Every loop records what it saw; verify_* checks it against solo
// references afterwards, outside the measured window.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "inputs.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/serve.hpp"
#include "netllm/vp_adapter.hpp"
#include "report.hpp"
#include "tensor/serialize.hpp"

namespace perfbench {

namespace serve = netllm::serve;
namespace adapt = netllm::adapt;

/// Seed of every backbone and adapter: weights are part of the program
/// under test, not of the workload, so they do not vary with --seed.
inline constexpr std::uint64_t kModelSeed = 7;

struct Stack {
  std::shared_ptr<adapt::VpAdapter> vp;
  std::shared_ptr<adapt::AbrAdapter> abr;  // mixed_flash_crowd only
  std::shared_ptr<adapt::CjsAdapter> cjs;  // mixed_flash_crowd only
  std::shared_ptr<serve::InferenceEngine> engine;  // null for adapt_vp
  netllm::tensor::NamedParams vp_trainable;        // adapt_vp: the adapted tensors
  std::vector<std::vector<float>> vp_initial;      // adapt_vp: their initial values
};

/// d64 llama2-lite backbone, or the 512-wide one for vp_wide_q8.
netllm::llm::MiniGptConfig backbone_config(bool wide);
/// The engine configuration of a serving workload.
serve::EngineConfig engine_config(const Spec& spec, int lanes);
/// The workload's set-up: backbones, adapters, engine (and Q8 weights).
Stack build_stack(const Spec& spec, int lanes);

/// Per-task tallies of where offered requests ended up.
struct Tally {
  std::int64_t offered = 0, llm = 0, retried = 0, fallback = 0, shed = 0, rejected = 0;
  std::int64_t primary() const { return llm + retried; }
};

struct VpRecord {
  int window = 0;
  serve::Source source = serve::Source::kFallback;
  bool rejected = false;
  double t_s = 0.0;     // scheduled send, seconds from the start of the window
  double e2e_ms = 0.0;  // scheduled send -> return of the run() that served it
  serve::ResponseMeta meta;
  std::vector<netllm::vp::Viewport> out;
};
struct AbrRecord {
  std::size_t event = 0;
  serve::Source source = serve::Source::kFallback;
  double e2e_ms = 0.0;
  serve::ResponseMeta meta;
  int level = 0;
};
struct CjsRecord {
  std::size_t event = 0;
  serve::Source source = serve::Source::kFallback;
  double e2e_ms = 0.0;
  serve::ResponseMeta meta;
  netllm::cjs::SchedAction action;
};

/// What one serving window recorded.
struct ServeLog {
  double wall_s = 0.0;
  std::vector<VpRecord> vp;
  std::vector<AbrRecord> abr;
  std::vector<CjsRecord> cjs;
  std::vector<double> lateness_ms;  // generator: actual - scheduled send
  std::vector<double> submit_us;    // InferenceEngine::submit call
  std::vector<double> drain_ms;     // InferenceEngine::run call
  std::vector<double> drain_size;
  Tally vp_tally, abr_tally, cjs_tally;  // from the BatchReports (+ rejections)
  std::int64_t prefix_hits = 0, prefix_misses = 0, evictions = 0;
};

/// Open-loop VP arrivals from one generator thread while this thread calls
/// run() whenever requests are pending; mixed_flash_crowd also keeps one
/// closed-loop ABR session and one CJS scheduler going.
ServeLog run_open_loop(Stack& stack, const Inputs& in, double seconds, Tracer& tracer,
                       Gate& gate);
/// vp_wide_q8: closed-loop drains of spec.drain distinct requests.
ServeLog run_drains(Stack& stack, const Inputs& in, double seconds, Tracer& tracer,
                    Gate& gate);
/// Probe for layers a workload's own traffic does not reach: `n` requests
/// of each selected task, one at a time, closed loop. VP requests use the
/// workload's windows; ABR/CJS ones a BBA session and FIFO episode made
/// from the workload seed.
ServeLog run_probe(serve::InferenceEngine& engine, const Inputs& in, int n, bool vp, bool abr,
                   bool cjs, Tracer& tracer, Gate& gate);

/// Serves the workload's warm-up windows once, outside any measured
/// window, so lazy set-up and first-touch costs are paid before timing.
void warm_up(serve::InferenceEngine& engine, const Inputs& in, Gate& gate);

/// True when no request's KV lease is still out: the engine's arena (if
/// any) returns to zero pages in use once its warm prefixes are evicted.
bool arena_drained(const serve::InferenceEngine& engine);

/// Correctness gate over a serving log: accounting, exactly-once
/// resolution, valid outputs, an empty KV arena, and every primary decision
/// bitwise equal to a solo single-lane reference of the same request.
void verify_serving(Stack& stack, const Inputs& in, const ServeLog& log, Gate& gate);

/// What the adaptation jobs recorded.
struct AdaptLog {
  double wall_s = 0.0;
  std::vector<double> step_ms;  // per-step time, one entry per job (job wall / steps)
  std::vector<double> job_t_s;  // job start, seconds from the start of the window
  std::int64_t steps = 0, skipped = 0, jobs = 0;
  std::vector<double> initial_loss, final_loss;  // per job
  double heldout_before = 0.0, heldout_after = 0.0;
};

/// adapt_vp: back-to-back adaptation jobs (VpAdapter::adapt for
/// spec.job_steps steps), each restarting from the initial weights.
AdaptLog run_adapt(Stack& stack, const Inputs& in, double seconds, Tracer& tracer, Gate& gate);
/// Resets the adapted tensors of `stack` to their initial values.
void restore_initial(Stack& stack);
/// Mean VpAdapter::loss over the held-out windows.
double heldout_loss(const Stack& stack, const Inputs& in);

}  // namespace perfbench
