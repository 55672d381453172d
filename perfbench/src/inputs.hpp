// Seeded, pure workload generator. Everything a run feeds the program —
// arrival times, VP windows, the replayed ABR session and CJS episode, the
// adaptation data and job seeds — is a function of (workload, seed) alone,
// truncated to the run length. The program only ever sees these inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "envs/abr/simulator.hpp"
#include "envs/cjs/simulator.hpp"
#include "envs/vp/dataset.hpp"

namespace perfbench {

enum class Workload { kVpSteady, kMixedFlashCrowd, kVpWideQ8, kAdaptVp };

/// Parses a workload name; throws std::invalid_argument on an unknown one.
Workload workload_from_name(const std::string& name);
const char* workload_name(Workload w);

/// The fixed parameters of each workload (README.md says why).
struct Spec {
  Workload workload;
  // Backbone: d64 is the llama2-lite shape the adapters serve by default;
  // the wide one is bench_decode's 512-wide quant shape.
  bool wide = false;
  int horizon = 20;             // VP rollout length (19 decode steps at 20)
  double limit_ms = 50.0;       // latency limit a decision must meet
  // vp_steady: open-loop Poisson single arrivals per second.
  double vp_rate = 0.0;
  // mixed_flash_crowd: open-loop Poisson bursts of `burst` VP requests.
  double burst_rate = 0.0;
  int burst = 0;
  int hot_set = 0;              // distinct VP prompts in the flash crowd
  // vp_wide_q8: closed-loop drains of this many requests.
  int drain = 0;
  // adapt_vp: steps per adaptation job, learning rate.
  int job_steps = 0;
  float lr = 0.0f;
};
Spec spec_for(Workload w);

/// One replayed ABR chunk: the observation BBA saw, and what happened.
struct AbrEvent {
  netllm::abr::Observation obs;
  netllm::abr::ChunkResult result;
  double qoe = 0.0;
  bool session_start = false;
};

/// One replayed CJS decision point from a FIFO episode.
struct CjsEvent {
  netllm::cjs::SchedObservation obs;
  double reward = 0.0;
  bool episode_start = false;
};

struct Arrival {
  double t_s = 0.0;  // scheduled send time from the start of the window
  int window = 0;    // index into Inputs::windows
};

struct Inputs {
  Spec spec;
  std::uint64_t seed = 0;
  std::vector<netllm::vp::VpSample> windows;  // VP prompts (distinct, or the hot set)
  std::vector<int> warmup;                    // windows served once before timing
  std::vector<Arrival> arrivals;              // open-loop VP schedule
  std::vector<AbrEvent> abr;                  // closed-loop ABR replay
  std::vector<CjsEvent> cjs;                  // closed-loop CJS replay
  std::vector<netllm::vp::VpSample> train;    // adaptation data
  std::vector<std::uint64_t> job_seeds;       // one per adaptation job
};

/// Builds the inputs of `w` for a run of `seconds`.
Inputs make_inputs(Workload w, std::uint64_t seed, double seconds);

/// FNV-1a digest over every byte of the inputs (schedule and payloads).
std::uint64_t fingerprint(const Inputs& in);

}  // namespace perfbench
