// Per-layer metrics of the traced run. Each is measured by timing public
// calls of one module on the workload's own shapes and inputs. A solo
// decision is split by the program's own trace phases (core/trace.hpp):
// the trace.<phase> histogram sums around the decision give its parts, and
// `*.glue_ms` is the decision's wall time minus those parts. A training step
// is replayed as VpAdapter::adapt runs it, with its parts timed inside it.
// Parts and glue come from the same decision (the one of median time), so
// they add up to its time exactly.
#pragma once

#include "inputs.hpp"
#include "report.hpp"
#include "serving.hpp"

namespace perfbench {

/// serve.* and kv.* (hit share, evictions) from a traced serving log.
void serve_metrics(const ServeLog& log, int lanes, Sheet& sheet);
/// Only the per-task serve.<task>_compute_ms_p50 / serve.<task>_e2e_ms_p50
/// and serve.policy_wait_ms_p50 (ABR/CJS) of the tasks `log` served; used
/// for a probe of the tasks a workload's own traffic lacks.
void task_metrics(const ServeLog& log, Sheet& sheet);

/// Everything else: netllm (vp/abr/cjs), llm, nn, mem, kernel, pool, kv
/// (lease/adopt) and adapt. `mixed` is a stack holding the d64 ABR and CJS
/// adapters the mixed workload serves; `abr_cjs` are its inputs.
void profile_layers(Stack& stack, const Inputs& in, Stack& mixed, const Inputs& abr_cjs,
                    int lanes, Sheet& sheet, Gate& gate);

/// Training steps per second inside VpAdapter::adapt since construction,
/// read from the adapt.vp.step_ms histogram the Adapt API records every
/// step into (so an adapt() call's set-up and exit are not counted).
class StepHistogram {
 public:
  StepHistogram();
  double per_s() const;

 private:
  std::int64_t count_;
  double sum_ms_;
};

/// Allocations of one replayed solo decision of the workload (a VP
/// rollout, or one adaptation step for adapt_vp), counted three times.
/// The gate requires the three counts to be equal.
void count_allocations(Stack& stack, const Inputs& in, Sheet& sheet, Gate& gate);

}  // namespace perfbench
