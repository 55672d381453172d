#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "alloc_count.hpp"
#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "nn/kv_arena.hpp"
#include "nn/transformer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/optim.hpp"
#include "tensor/quants.hpp"

namespace perfbench {

namespace nn = netllm::nn;
namespace llm = netllm::llm;
namespace quant = netllm::tensor::quant;
namespace kernels = netllm::tensor::kernels;
namespace trace = netllm::core::trace;
using netllm::tensor::Tensor;
using serve::Source;

namespace {

bool primary(Source s) { return s == Source::kLlm || s == Source::kRetried; }

double ms_since(Clock::time_point t) { return ms_between(t, Clock::now()); }

/// Runs `fn` the way the engine runs one request: alone, inside a single
/// pool lane, where nested parallel ops execute inline.
void in_lane(const std::function<void()>& fn) {
  netllm::core::parallel_for(1, 1, [&](std::int64_t, std::int64_t) { fn(); });
}

std::vector<nn::KvCache> fresh_caches(const llm::MiniGpt& m, std::int64_t rows) {
  std::vector<nn::KvCache> layers(static_cast<std::size_t>(m.config().n_layers));
  for (auto& c : layers) {
    c.d_model = m.config().d_model;
    c.reserve(rows);
  }
  return layers;
}

/// Runs `fn` `calls` times per batch; returns the median batch time in
/// seconds over `batches` batches (after one warm-up batch).
double batch_seconds(int calls, int batches, const std::function<void()>& fn) {
  std::vector<double> s;
  for (int b = 0; b <= batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    if (b > 0) s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(s);
}

// ---- netllm + llm: solo decisions split by the program's own trace phases ----
//
// VpAdapter, AbrAdapter, CjsAdapter and MiniGpt time their encoder, backbone
// and head calls into the core::metrics histograms trace.<phase>. The sum of
// each histogram around one solo decision is that decision's time in the
// phase; the decision's wall time minus its parts is its glue. The phases
// never nest inside one decision, so parts + glue == the decision's time.

constexpr trace::Phase kParts[] = {trace::Phase::kEncode, trace::Phase::kPrefill,
                                   trace::Phase::kDecodeStep, trace::Phase::kHead};
constexpr std::size_t kNumParts = std::size(kParts);

/// One solo decision: its wall time and its time in each of kParts.
struct Split {
  double total_ms = 0.0;
  double part_ms[kNumParts] = {};
  double part(trace::Phase p) const {
    for (std::size_t i = 0; i < kNumParts; ++i) {
      if (kParts[i] == p) return part_ms[i];
    }
    return 0.0;
  }
  double glue() const {
    double g = total_ms;
    for (double x : part_ms) g -= x;
    return g;
  }
};

/// Times `decide` and the trace phases it records.
Split split(const std::function<void()>& decide) {
  Split s;
  for (std::size_t i = 0; i < kNumParts; ++i) s.part_ms[i] = -trace::phase_histogram(kParts[i]).sum();
  const auto t0 = Clock::now();
  decide();
  s.total_ms = ms_since(t0);
  for (std::size_t i = 0; i < kNumParts; ++i) s.part_ms[i] += trace::phase_histogram(kParts[i]).sum();
  return s;
}

/// The decision of median wall time: every reported part and the glue come
/// from this one decision, so they add up to its time.
const Split& median_split(std::vector<Split>& splits) {
  std::sort(splits.begin(), splits.end(),
            [](const Split& a, const Split& b) { return a.total_ms < b.total_ms; });
  return splits[splits.size() / 2];
}

void profile_vp(Stack& stack, const Inputs& in, Sheet& sheet) {
  auto& adapter = *stack.vp;
  const int h = in.spec.horizon;
  const int reps = in.spec.wide ? 5 : 15;
  const auto arena = adapter.kv_arena();
  adapter.set_kv_arena(nullptr);  // solo: no pooling, no prefix sharing
  std::vector<Split> splits;
  for (int r = 0; r < reps + 1; ++r) {
    const auto& s = in.windows[static_cast<std::size_t>(r) % in.windows.size()];
    const auto one = split([&] { adapter.predict(s.history, s.saliency, h); });
    if (r > 0) splits.push_back(one);  // the first decision warms up
  }
  adapter.set_kv_arena(arena);
  const auto& m = median_split(splits);
  sheet.set("vp.predict_ms", m.total_ms, "ms");
  sheet.set("vp.encode_ms", m.part(trace::Phase::kEncode), "ms");
  sheet.set("llm.prefill_ms", m.part(trace::Phase::kPrefill), "ms");
  sheet.set("llm.steps_ms", m.part(trace::Phase::kDecodeStep), "ms");
  sheet.set("vp.head_ms", m.part(trace::Phase::kHead), "ms");
  sheet.set("vp.glue_ms", m.glue(), "ms");

  // The first and the last decode step of a rollout at the workload's
  // horizon, on the same backbone: the O(T) growth with the cache length.
  const auto& gpt = adapter.llm();
  const auto d = gpt.config().d_model;
  const std::int64_t prompt_len = 1 + static_cast<std::int64_t>(in.windows[0].history.size());
  netllm::core::Rng rng(kModelSeed + 1);
  const auto prompt = Tensor::randn({prompt_len, d}, rng, 0.5f);
  const auto row = Tensor::randn({1, d}, rng, 0.5f);
  std::vector<double> first, last;
  for (int r = 0; r < reps + 1; ++r) {
    auto layers = fresh_caches(gpt, prompt_len + h - 1);
    gpt.prefill_embeddings(prompt, layers);
    for (int k = 0; k + 1 < h; ++k) {
      const auto t0 = Clock::now();
      gpt.embeddings_step(row, layers);
      const double ms = ms_since(t0);
      if (r > 0 && k == 0) first.push_back(ms);
      if (r > 0 && k + 2 == h) last.push_back(ms);
    }
  }
  sheet.set("llm.step_ms_first", median(first), "ms");
  sheet.set("llm.step_ms_last", median(last), "ms");
}

// ABR and CJS decisions on the d64 adapters of the mixed stack, replaying a
// session / episode so the context window is full when timing starts.
void profile_abr(Stack& mixed, const Inputs& src, Sheet& sheet) {
  auto& adapter = *mixed.abr;
  constexpr int kWindow = 10, kReps = 15;
  std::vector<Split> splits;
  adapter.begin_session();
  for (int i = 0; i < kWindow + kReps; ++i) {
    const auto& ev = src.abr[static_cast<std::size_t>(i)];
    const auto one = split([&] { adapter.choose_level(ev.obs); });
    adapter.observe_result(ev.result, ev.qoe);
    if (i >= kWindow) splits.push_back(one);
  }
  const auto& m = median_split(splits);
  sheet.set("abr.choose_ms", m.total_ms, "ms");
  sheet.set("abr.encode_ms", m.part(trace::Phase::kEncode), "ms");
  sheet.set("llm.forward_ms_abr", m.part(trace::Phase::kPrefill), "ms");
  sheet.set("abr.head_ms", m.part(trace::Phase::kHead), "ms");
  sheet.set("abr.glue_ms", m.glue(), "ms");
}

void profile_cjs(Stack& mixed, const Inputs& src, Sheet& sheet) {
  auto& adapter = *mixed.cjs;
  constexpr int kWindow = 20, kReps = 15;
  std::vector<Split> splits;
  adapter.begin_episode();
  for (int i = 0; i < kWindow + kReps; ++i) {
    const auto& ev = src.cjs[static_cast<std::size_t>(i)];
    const auto one = split([&] { adapter.choose(ev.obs); });
    adapter.observe_reward(ev.reward);
    if (i >= kWindow) splits.push_back(one);
  }
  const auto& m = median_split(splits);
  sheet.set("cjs.choose_ms", m.total_ms, "ms");
  // The encode phase: the GNN over the window's graphs and the small token
  // encoders around it.
  sheet.set("cjs.gnn_ms", m.part(trace::Phase::kEncode), "ms");
  sheet.set("llm.forward_ms_cjs", m.part(trace::Phase::kPrefill), "ms");
  sheet.set("cjs.head_ms", m.part(trace::Phase::kHead), "ms");
  sheet.set("cjs.glue_ms", m.glue(), "ms");
}

// ---- nn: one decode step of a block and its parts, at the workload's width ----
void profile_nn(const llm::MiniGptConfig& cfg, bool q8, Sheet& sheet) {
  netllm::core::Rng rng(kModelSeed + 4);
  const auto d = cfg.d_model;
  nn::TransformerBlock block(d, cfg.n_heads, cfg.d_ff, /*causal=*/true, rng);
  nn::MultiHeadAttention attn(d, cfg.n_heads, /*causal=*/true, rng);
  nn::Linear proj(d, d, rng), ffn(d, cfg.d_ff, rng);
  nn::LayerNorm norm(d);
  if (q8) {
    for (const auto& l : block.projection_linears()) l->set_weight_dtype(quant::Dtype::kQ8_0);
    for (const auto& l : attn.projection_linears()) l->set_weight_dtype(quant::Dtype::kQ8_0);
    proj.set_weight_dtype(quant::Dtype::kQ8_0);
    ffn.set_weight_dtype(quant::Dtype::kQ8_0);
  }
  constexpr std::int64_t kCached = 20;  // decode position of the timed step
  const auto prefix = Tensor::randn({kCached, d}, rng, 0.5f);
  const auto x = Tensor::randn({1, d}, rng, 0.5f);
  nn::KvCache block_cache, attn_cache;
  block.forward(prefix, &block_cache);
  attn.forward(prefix, &attn_cache);
  const int reps = q8 ? 60 : 300;
  auto step_us = [&](const nn::KvCache& base, auto&& step) {
    std::vector<double> us;
    for (int r = 0; r < reps + 10; ++r) {
      nn::KvCache c = base;
      c.reserve(kCached + 1);
      const auto t0 = Clock::now();
      step(c);
      if (r >= 10) us.push_back(us_between(t0, Clock::now()));
    }
    return median(us);
  };
  sheet.set("nn.block_step_us",
            step_us(block_cache, [&](nn::KvCache& c) { block.forward_step(x, c); }), "us");
  sheet.set("nn.attn_step_us",
            step_us(attn_cache, [&](nn::KvCache& c) { attn.forward_step(x, c); }), "us");
  sheet.set("nn.linear_step_us", time_us(10, reps, [&] { proj.forward(x); }), "us");
  sheet.set("nn.linear_ffn_step_us", time_us(10, reps, [&] { ffn.forward(x); }), "us");
  sheet.set("nn.layernorm_step_us", time_us(10, reps, [&] { norm.forward(x); }), "us");
}

// ---- tensor: the matmul kernels at the shapes the workloads run ----
void profile_kernels(Sheet& sheet) {
  netllm::core::Rng rng(kModelSeed + 5);
  auto randv = [&](std::int64_t n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 0.5));
    return v;
  };
  auto gemv_gflops = [&](std::int64_t m, std::int64_t k, std::int64_t n, int calls) {
    const auto a = randv(m * k), b = randv(k * n);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    const double s = batch_seconds(calls, 7, [&] {
      kernels::matmul_accum(a.data(), b.data(), c.data(), m, k, n);
    });
    return 2.0 * static_cast<double>(m * k * n) * calls / s / 1e9;
  };
  sheet.set("kernel.gemv_f32_d64_gflops", gemv_gflops(1, 64, 64, 2000), "GFLOP/s");
  sheet.set("kernel.gemv_f32_d512_gflops", gemv_gflops(1, 512, 512, 40), "GFLOP/s");
  // The ABR context window through one 64-wide projection: 59 rows.
  sheet.set("kernel.gemm_f32_window_gflops", gemv_gflops(59, 64, 64, 60), "GFLOP/s");

  // Q8_0 GEMV: weights stored transposed [out, in], activations quantized.
  constexpr std::int64_t k = 512, n = 512;
  const auto w = randv(n * k), x = randv(k);
  const auto wq = quant::quantize(quant::Dtype::kQ8_0, w.data(), n, k);
  const auto kb = quant::blocks_per_row(k);
  std::vector<float> xs(static_cast<std::size_t>(kb));
  std::vector<std::uint8_t> xq(static_cast<std::size_t>(kb * quant::block_code_bytes(wq.dtype)));
  quant::quantize_row(quant::Dtype::kQ8_0, x.data(), k, xs.data(), xq.data());
  std::vector<float> c(static_cast<std::size_t>(n), 0.0f);
  constexpr int kCalls = 40;
  const double s = batch_seconds(kCalls, 7, [&] {
    kernels::matmul_q8_accum(reinterpret_cast<const std::int8_t*>(xq.data()), xs.data(),
                             reinterpret_cast<const std::int8_t*>(wq.codes.data()),
                             wq.scales.data(), c.data(), 1, kb, n);
  });
  const double bytes = static_cast<double>(wq.bytes()) +
                       static_cast<double>(xq.size() + xs.size() * sizeof(float)) +
                       static_cast<double>(n * sizeof(float));
  sheet.set("kernel.gemv_q8_d512_gflops", 2.0 * k * n * kCalls / s / 1e9, "GFLOP/s");
  sheet.set("kernel.gemv_q8_d512_gbps", bytes * kCalls / s / 1e9, "GB/s");
}

// ---- core: one empty parallel_for across every lane ----
void profile_pool(int lanes, Sheet& sheet) {
  sheet.set("pool.parallel_for_us", time_us(100, 2000, [&] {
              netllm::core::parallel_for(lanes, 1, [](std::int64_t, std::int64_t) {});
            }),
            "us");
}

// ---- kv: lease / adopt on an arena of the workload's shape ----
void profile_kv(Stack& stack, const Inputs& in, Sheet& sheet) {
  const auto& gpt = stack.vp->llm();
  const auto& cfg = gpt.config();
  nn::KvArena arena(cfg.n_layers, cfg.d_model, {16, 4096, 32});
  netllm::core::Rng rng(kModelSeed + 6);
  const std::int64_t prompt_len = 1 + static_cast<std::int64_t>(in.windows[0].history.size());
  const auto rows = prompt_len + in.spec.horizon - 1;
  const auto prompt = Tensor::randn({prompt_len, cfg.d_model}, rng, 0.5f);
  const auto key = nn::KvArena::prefix_key(prompt.data());
  {
    auto lease = arena.lease(rows);
    const auto feats = gpt.prefill_embeddings(prompt, lease.layers());
    const auto last = netllm::tensor::slice_rows(feats, prompt_len - 1, 1);
    arena.publish(key, prompt.data(), lease.layers(), prompt_len, last.data());
  }
  sheet.set("kv.lease_us", time_us(20, 500, [&] { auto l = arena.lease(rows); }), "us");
  std::vector<double> us;
  std::vector<float> feats;
  for (int r = 0; r < 520; ++r) {
    auto lease = arena.lease(rows);
    const auto t0 = Clock::now();
    arena.adopt(key, prompt.data(), lease, &feats);
    if (r >= 20) us.push_back(us_between(t0, Clock::now()));
  }
  sheet.set("kv.adopt_us", median(us), "us");
}

// ---- adapt: one training step split into forward / backward / optimizer ----
void profile_adapt(Stack& stack, const Inputs& in, Sheet& sheet) {
  auto& adapter = *stack.vp;
  const auto& data = in.train.empty() ? in.windows : in.train;
  const int reps = in.spec.wide ? 5 : 15;
  constexpr float kLr = 1e-3f;
  constexpr std::uint64_t kSeed = 11;
  if (!sheet.has("adapt.steps_per_s")) {
    // The Adapt API's own step loop, read from its adapt.vp.step_ms
    // histogram: the requantize of a Q8 backbone on the way out is no step.
    const StepHistogram steps;
    const auto st = adapter.adapt(data, reps, kLr, kSeed);
    sheet.set("adapt.steps_per_s", steps.per_s(), "1/s");
    sheet.set("adapt.final_loss", st.final_loss, "loss");
  }
  // Steps replayed as adapt() runs them, on the fp32 masters; the parts and
  // the whole are timed in the same step.
  llm::ScopedQuantPause pause(*adapter.llm_shared());
  netllm::tensor::Adam opt(adapter.adapt_parameters(), kLr);
  netllm::core::Rng rng(kSeed);
  struct Step {
    double total, forward, backward, optim;
  };
  std::vector<Step> steps;
  for (int r = 0; r < reps + 1; ++r) {
    const auto t0 = Clock::now();
    opt.set_lr(kLr);
    const auto& s =
        data[static_cast<std::size_t>(rng.randint(0, static_cast<std::int64_t>(data.size()) - 1))];
    opt.zero_grad();
    const auto t1 = Clock::now();
    auto loss = adapter.loss(s);
    loss.item();
    const auto t2 = Clock::now();
    loss.backward();
    const auto t3 = Clock::now();
    opt.clip_grad_norm(1.0);
    opt.step();
    const auto t4 = Clock::now();
    if (r > 0) {
      steps.push_back({ms_between(t0, t4), ms_between(t1, t2), ms_between(t2, t3),
                       ms_between(t3, t4)});
    }
  }
  std::sort(steps.begin(), steps.end(),
            [](const Step& a, const Step& b) { return a.total < b.total; });
  const auto& m = steps[steps.size() / 2];  // the step of median time
  sheet.set("adapt.step_ms", m.total, "ms");
  sheet.set("adapt.forward_ms", m.forward, "ms");
  sheet.set("adapt.backward_ms", m.backward, "ms");
  sheet.set("adapt.optim_ms", m.optim, "ms");
  sheet.set("adapt.glue_ms", m.total - m.forward - m.backward - m.optim, "ms");
}

}  // namespace

void task_metrics(const ServeLog& log, Sheet& sheet) {
  auto set = [&](const char* task, const std::vector<double>& compute,
                 const std::vector<double>& e2e) {
    if (compute.empty()) return;
    sheet.set(std::string("serve.") + task + "_compute_ms_p50", percentile(compute, 50), "ms");
    if (!e2e.empty()) {
      sheet.set(std::string("serve.") + task + "_e2e_ms_p50", percentile(e2e, 50), "ms");
    }
  };
  // Primary answers only: a shed request's compute is the fallback's.
  std::vector<double> vp_c, abr_c, cjs_c, abr_e2e, cjs_e2e;
  for (const auto& r : log.vp) {
    if (!r.rejected && primary(r.source)) vp_c.push_back(r.meta.compute_ms);
  }
  for (const auto& r : log.abr) {
    if (!primary(r.source)) continue;
    abr_c.push_back(r.meta.compute_ms);
    abr_e2e.push_back(r.e2e_ms);
  }
  for (const auto& r : log.cjs) {
    if (!primary(r.source)) continue;
    cjs_c.push_back(r.meta.compute_ms);
    cjs_e2e.push_back(r.e2e_ms);
  }
  set("vp", vp_c, {});
  set("abr", abr_c, abr_e2e);
  set("cjs", cjs_c, cjs_e2e);
  // Only the stateful ABR/CJS policies serialize on a mutex.
  std::vector<double> policy;
  for (const auto& r : log.abr) policy.push_back(r.meta.queue_wait_ms);
  for (const auto& r : log.cjs) policy.push_back(r.meta.queue_wait_ms);
  if (!policy.empty()) sheet.set("serve.policy_wait_ms_p50", percentile(policy, 50), "ms");
}

void serve_metrics(const ServeLog& log, int lanes, Sheet& sheet) {
  std::vector<double> admission, overhead;
  double busy_ms = 0.0;
  auto note = [&](const serve::ResponseMeta& m, double e2e_ms) {
    admission.push_back(m.admission_wait_ms);
    if (primary(m.source)) overhead.push_back(e2e_ms - m.compute_ms);
    busy_ms += m.latency_ms;
  };
  for (const auto& r : log.vp) {
    if (!r.rejected) note(r.meta, r.e2e_ms);
  }
  for (const auto& r : log.abr) note(r.meta, r.e2e_ms);
  for (const auto& r : log.cjs) note(r.meta, r.e2e_ms);
  Tally all;
  for (const Tally* t : {&log.vp_tally, &log.abr_tally, &log.cjs_tally}) {
    all.offered += t->offered;
    all.llm += t->llm;
    all.retried += t->retried;
    all.fallback += t->fallback;
    all.shed += t->shed;
    all.rejected += t->rejected;
  }
  const double offered = static_cast<double>(std::max<std::int64_t>(all.offered, 1));
  double drain_total = 0.0;
  for (double d : log.drain_ms) drain_total += d;
  sheet.set("serve.submit_us", median(log.submit_us), "us");
  sheet.set("serve.drain_ms_p50", percentile(log.drain_ms, 50), "ms");
  sheet.set("serve.drain_ms_p99", percentile(log.drain_ms, 99), "ms");
  sheet.set("serve.drain_size_mean", mean(log.drain_size), "count");
  sheet.set("serve.admission_wait_ms_p50", percentile(admission, 50), "ms");
  sheet.set("serve.admission_wait_ms_p99", percentile(admission, 99), "ms");
  task_metrics(log, sheet);
  sheet.set("serve.engine_overhead_ms_p50", percentile(overhead, 50), "ms");
  sheet.set("serve.lane_busy_share", busy_ms / std::max(drain_total * lanes, 1e-9), "share");
  sheet.set("serve.shed_share", static_cast<double>(all.shed) / offered, "share");
  sheet.set("serve.fallback_share", static_cast<double>(all.fallback) / offered, "share");
  sheet.set("serve.rejected_share", static_cast<double>(all.rejected) / offered, "share");
  sheet.set("serve.error_share", static_cast<double>(all.offered - all.primary()) / offered,
            "share");
  const auto lookups = log.prefix_hits + log.prefix_misses;
  sheet.set("kv.prefix_hit_share",
            lookups > 0 ? static_cast<double>(log.prefix_hits) / static_cast<double>(lookups)
                        : 0.0,
            "share");
  sheet.set("kv.evictions", static_cast<double>(log.evictions), "count");
}

void count_allocations(Stack& stack, const Inputs& in, Sheet& sheet, Gate& gate) {
  std::function<void()> decision;
  const auto& s = in.windows[0];
  std::unique_ptr<netllm::tensor::Adam> opt;
  if (in.spec.workload == Workload::kAdaptVp) {
    opt = std::make_unique<netllm::tensor::Adam>(stack.vp->adapt_parameters(), in.spec.lr);
    decision = [&] {
      opt->zero_grad();
      auto loss = stack.vp->loss(in.train[0]);
      loss.item();
      loss.backward();
      opt->clip_grad_norm(1.0);
      opt->step();
    };
  } else {
    decision = [&] { stack.vp->predict(s.history, s.saliency, in.spec.horizon); };
  }
  const auto arena = stack.vp->kv_arena();
  stack.vp->set_kv_arena(nullptr);
  decision();  // warm-up: lazy registrations and first-touch buffers
  alloc::Counts counts[3];
  for (auto& c : counts) {
    in_lane([&] {
      alloc::start();
      decision();
      c = alloc::stop();
    });
  }
  stack.vp->set_kv_arena(arena);
  if (in.spec.workload == Workload::kAdaptVp) restore_initial(stack);
  gate.check(counts[0].allocs == counts[1].allocs && counts[1].allocs == counts[2].allocs &&
                 counts[0].bytes == counts[1].bytes && counts[1].bytes == counts[2].bytes,
             "allocation counts of a replayed decision differ between replays");
  sheet.set("mem.allocs_per_decision", static_cast<double>(counts[0].allocs), "count");
  sheet.set("mem.alloc_bytes_per_decision", static_cast<double>(counts[0].bytes), "B");
}

void profile_layers(Stack& stack, const Inputs& in, Stack& mixed, const Inputs& abr_cjs,
                    int lanes, Sheet& sheet, Gate& gate) {
  // Decision-path layers are timed inside one lane, as the engine runs them;
  // the pool and the training step are timed from this thread, as callers
  // of parallel_for and adapt() run them.
  netllm::core::metrics::set_enabled(true);  // the trace phases record into metrics
  in_lane([&] {
    profile_vp(stack, in, sheet);
    profile_abr(mixed, abr_cjs, sheet);
    profile_cjs(mixed, abr_cjs, sheet);
    profile_nn(stack.vp->llm().config(), in.spec.wide, sheet);
    profile_kernels(sheet);
    profile_kv(stack, in, sheet);
  });
  count_allocations(stack, in, sheet, gate);
  profile_pool(lanes, sheet);
  profile_adapt(stack, in, sheet);
}

StepHistogram::StepHistogram() {
  const auto& h = netllm::core::metrics::histogram("adapt.vp.step_ms");
  count_ = h.count();
  sum_ms_ = h.sum();
}

double StepHistogram::per_s() const {
  const auto& h = netllm::core::metrics::histogram("adapt.vp.step_ms");
  return static_cast<double>(h.count() - count_) * 1e3 / (h.sum() - sum_ms_);
}

}  // namespace perfbench
