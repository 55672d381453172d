#include "serving.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "core/threadpool.hpp"
#include "nn/kv_arena.hpp"

namespace perfbench {

namespace llm = netllm::llm;
namespace vp = netllm::vp;
using serve::Source;

namespace {

constexpr std::int64_t kVocab = 64;
// After the window ends, the last requests get the latency limit plus this
// long to resolve; any still unresolved then fail the gate.
constexpr double kDrainGraceMs = 1000.0;

bool primary(Source s) { return s == Source::kLlm || s == Source::kRetried; }

void count(Tally& t, Source s) {
  switch (s) {
    case Source::kLlm: ++t.llm; break;
    case Source::kRetried: ++t.retried; break;
    case Source::kFallback: ++t.fallback; break;
    case Source::kShed: ++t.shed; break;
  }
}

std::shared_ptr<llm::MiniGpt> backbone(bool wide, netllm::core::Rng& rng) {
  return std::make_shared<llm::MiniGpt>(backbone_config(wide), rng);
}

serve::VpRequest vp_request(const vp::VpSample& s, int horizon) {
  return serve::VpRequest{s.history, s.saliency, horizon};
}

bool same_bits(const std::vector<vp::Viewport>& a, const std::vector<vp::Viewport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x[] = {a[i].roll, a[i].pitch, a[i].yaw};
    const double y[] = {b[i].roll, b[i].pitch, b[i].yaw};
    if (std::memcmp(x, y, sizeof x) != 0) return false;
  }
  return true;
}

bool finite(const std::vector<vp::Viewport>& vs) {
  for (const auto& v : vs) {
    if (!std::isfinite(v.roll) || !std::isfinite(v.pitch) || !std::isfinite(v.yaw)) return false;
  }
  return true;
}

/// Sums of the drains' BatchReports. A report mixes tasks, so the per-task
/// split comes from the resolved tickets; the sums must agree with them.
struct ReportSums {
  std::int64_t requests = 0, llm = 0, retried = 0, fallback = 0, shed = 0;
};

/// One submitted request awaiting the run() that serves it.
struct Pending {
  serve::Ticket ticket;
  int window = 0;
  Clock::time_point sched;
  bool rejected = false;
};

class ArenaDelta {
 public:
  explicit ArenaDelta(const serve::InferenceEngine& e) : arena_(e.kv_arena().get()) {
    if (arena_) {
      hits_ = arena_->prefix_hits();
      misses_ = arena_->prefix_misses();
      evictions_ = arena_->evictions();
    }
  }
  void finish(ServeLog& log) const {
    if (!arena_) return;
    log.prefix_hits += static_cast<std::int64_t>(arena_->prefix_hits() - hits_);
    log.prefix_misses += static_cast<std::int64_t>(arena_->prefix_misses() - misses_);
    log.evictions += static_cast<std::int64_t>(arena_->evictions() - evictions_);
  }

 private:
  const netllm::nn::KvArena* arena_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace

llm::MiniGptConfig backbone_config(bool wide) {
  llm::MiniGptConfig c;
  c.vocab = kVocab;
  if (wide) {
    c.d_model = 512;
    c.n_heads = 8;
    c.d_ff = 1280;
    c.max_seq = 64;
  } else {
    c.max_seq = 112;  // room for the CJS window (20 steps x 5 tokens)
  }
  return c;
}

serve::EngineConfig engine_config(const Spec& spec, int lanes) {
  serve::EngineConfig cfg;
  cfg.max_slots = static_cast<std::size_t>(lanes);
  if (spec.workload == Workload::kMixedFlashCrowd) {
    cfg.max_queue = 8;
    cfg.admission = serve::AdmissionPolicy::kShedOldest;
    cfg.deadline_ms = spec.limit_ms;
    cfg.vp_priority = 0;
    cfg.abr_priority = 1;
    cfg.cjs_priority = 1;
  }
  if (spec.wide) cfg.backbone_dtype = netllm::tensor::quant::Dtype::kQ8_0;
  return cfg;
}

Stack build_stack(const Spec& spec, int lanes) {
  Stack s;
  netllm::core::Rng rng(kModelSeed);
  s.vp = std::make_shared<adapt::VpAdapter>(backbone(spec.wide, rng), adapt::VpAdapterConfig{},
                                            rng);
  if (spec.workload == Workload::kMixedFlashCrowd) {
    s.abr = std::make_shared<adapt::AbrAdapter>(backbone(false, rng), adapt::AbrAdapterConfig{},
                                                rng);
    s.cjs = std::make_shared<adapt::CjsAdapter>(backbone(false, rng), adapt::CjsAdapterConfig{},
                                                rng);
  }
  if (spec.workload == Workload::kAdaptVp) {
    s.vp->collect_params(s.vp_trainable, "vp");
    for (const auto& [name, t] : s.vp_trainable) {
      s.vp_initial.emplace_back(t.data().begin(), t.data().end());
    }
  } else {
    s.engine = std::make_shared<serve::InferenceEngine>(s.vp, s.abr, s.cjs,
                                                        engine_config(spec, lanes));
  }
  return s;
}

ServeLog run_open_loop(Stack& stack, const Inputs& in, double seconds, Tracer& tracer,
                       Gate& gate) {
  auto& engine = *stack.engine;
  const auto& spec = in.spec;
  ServeLog log;
  ArenaDelta arena(engine);

  std::mutex inbox_mu;
  std::vector<Pending> inbox;  // guarded by inbox_mu
  std::atomic<bool> gen_done{false};
  std::exception_ptr gen_error;

  // Closed-loop clients (mixed_flash_crowd): one outstanding request each.
  const bool closed = !in.abr.empty() && stack.abr && stack.cjs;
  std::size_t abr_next = 0, cjs_next = 0;
  bool abr_waiting = false, cjs_waiting = false;
  serve::Ticket abr_ticket, cjs_ticket;
  Clock::time_point abr_sent, cjs_sent;

  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  auto submit_abr = [&] {
    if (abr_next >= in.abr.size() || Clock::now() >= t_end) return;
    const auto& ev = in.abr[abr_next];
    if (ev.session_start) engine.begin_abr_session();
    abr_sent = Clock::now();
    abr_ticket = engine.submit(serve::AbrRequest{ev.obs});
    abr_waiting = true;
    ++log.abr_tally.offered;
  };
  auto submit_cjs = [&] {
    if (cjs_next >= in.cjs.size() || Clock::now() >= t_end) return;
    const auto& ev = in.cjs[cjs_next];
    if (ev.episode_start) engine.begin_cjs_episode();
    cjs_sent = Clock::now();
    cjs_ticket = engine.submit(serve::CjsRequest{ev.obs});
    cjs_waiting = true;
    ++log.cjs_tally.offered;
  };
  if (closed) {
    submit_abr();
    submit_cjs();
  }

  std::vector<double> lateness, submit_us;
  // Counted by the generator as it sends, not from the resolved records, so
  // a ticket that never resolves breaks the accounting check.
  std::int64_t vp_offered = 0, vp_rejected = 0;
  std::thread generator([&] {
    try {
      for (const auto& a : in.arrivals) {
        if (a.t_s >= seconds) break;
        const auto sched = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(a.t_s));
        std::this_thread::sleep_until(sched);
        const auto now = Clock::now();
        lateness.push_back(ms_between(sched, now));
        Pending p{{}, a.window, sched, false};
        // Submit and publish under one lock, so a request run() served is
        // always in the inbox by the time the measuring thread looks for it.
        std::lock_guard<std::mutex> lk(inbox_mu);
        ++vp_offered;
        try {
          p.ticket = engine.submit(vp_request(in.windows[static_cast<std::size_t>(a.window)],
                                              spec.horizon));
        } catch (const serve::Overloaded&) {
          p.rejected = true;
          ++vp_rejected;
        }
        const auto done = Clock::now();
        submit_us.push_back(us_between(now, done));
        tracer.add("serve.submit", now, done, -1, static_cast<std::int64_t>(a.window));
        inbox.push_back(p);
      }
    } catch (...) {
      gen_error = std::current_exception();
    }
    gen_done.store(true);
  });

  std::vector<Pending> outstanding;
  std::size_t head = 0;
  ReportSums sums;
  // A request that never resolves fails the gate instead of hanging the run.
  const auto drain_deadline =
      t_end + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(spec.limit_ms + kDrainGraceMs));
  try {
    while (true) {
      if (gen_done.load() && Clock::now() > drain_deadline) {
        std::lock_guard<std::mutex> lk(inbox_mu);
        const auto lost = inbox.size() + (outstanding.size() - head) + (abr_waiting ? 1 : 0) +
                          (cjs_waiting ? 1 : 0);
        for (std::size_t i = 0; i < lost; ++i) {
          gate.check(false, "request unresolved at the drain deadline");
        }
        break;
      }
      if (engine.pending() > 0) {
        const auto d0 = Clock::now();
        const auto rep = engine.run();
        const auto d1 = Clock::now();
        const int drain_span = tracer.add("serve.drain", d0, d1);
        log.drain_ms.push_back(ms_between(d0, d1));
        log.drain_size.push_back(static_cast<double>(rep.requests));
        sums.requests += static_cast<std::int64_t>(rep.requests);
        sums.llm += static_cast<std::int64_t>(rep.llm);
        sums.retried += static_cast<std::int64_t>(rep.retried);
        sums.fallback += static_cast<std::int64_t>(rep.fallback);
        sums.shed += static_cast<std::int64_t>(rep.shed);
        {
          std::lock_guard<std::mutex> lk(inbox_mu);
          for (auto& p : inbox) outstanding.push_back(p);
          inbox.clear();
        }
        for (; head < outstanding.size(); ++head) {
          const auto& p = outstanding[head];
          VpRecord r;
          r.window = p.window;
          if (p.rejected) {
            r.rejected = true;
          } else {
            try {
              const auto& resp = engine.vp_response(p.ticket);
              r.source = resp.meta.source;
              r.meta = resp.meta;
              r.out = resp.viewports;
            } catch (const serve::StaleTicket&) {
              break;  // submitted after this drain began: a later run() serves it
            }
          }
          r.t_s = std::chrono::duration<double>(p.sched - t0).count();
          r.e2e_ms = ms_between(p.sched, d1);
          tracer.add("vp.request", p.sched, d1, drain_span, static_cast<std::int64_t>(head));
          log.vp.push_back(std::move(r));
        }
        if (abr_waiting) {
          try {
            const auto& resp = engine.abr_response(abr_ticket);
            log.abr.push_back({abr_next, resp.meta.source, ms_between(abr_sent, d1), resp.meta,
                               resp.level});
            tracer.add("abr.request", abr_sent, d1, drain_span,
                       static_cast<std::int64_t>(abr_next));
            const auto& ev = in.abr[abr_next++];
            engine.observe_abr_result(ev.result, ev.qoe);
            abr_waiting = false;
            submit_abr();
          } catch (const serve::StaleTicket&) {
          }
        }
        if (cjs_waiting) {
          try {
            const auto& resp = engine.cjs_response(cjs_ticket);
            log.cjs.push_back({cjs_next, resp.meta.source, ms_between(cjs_sent, d1), resp.meta,
                               resp.action});
            tracer.add("cjs.request", cjs_sent, d1, drain_span,
                       static_cast<std::int64_t>(cjs_next));
            const auto& ev = in.cjs[cjs_next++];
            engine.observe_cjs_reward(ev.reward);
            cjs_waiting = false;
            submit_cjs();
          } catch (const serve::StaleTicket&) {
          }
        }
        continue;
      }
      if (gen_done.load()) {
        std::lock_guard<std::mutex> lk(inbox_mu);
        if (inbox.empty() && head == outstanding.size() && !abr_waiting && !cjs_waiting &&
            engine.pending() == 0) {
          break;
        }
      }
      // Sleep rather than spin: a spinning caller takes a core from the
      // pool lanes and the generator, and shows up as latency.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  } catch (...) {
    gen_done.wait(false);
    generator.join();
    throw;
  }
  generator.join();
  log.wall_s = std::max(seconds, std::chrono::duration<double>(Clock::now() - t0).count());
  if (gen_error) std::rethrow_exception(gen_error);
  log.lateness_ms = std::move(lateness);
  log.submit_us = std::move(submit_us);
  arena.finish(log);

  log.vp_tally.offered = vp_offered;
  log.vp_tally.rejected = vp_rejected;
  for (const auto& r : log.vp) {
    if (!r.rejected) count(log.vp_tally, r.source);
  }
  for (const auto& r : log.abr) count(log.abr_tally, r.source);
  for (const auto& r : log.cjs) count(log.cjs_tally, r.source);
  // The engine's own reports must account for exactly what was resolved.
  const auto total = [&](auto field) {
    return log.vp_tally.*field + log.abr_tally.*field + log.cjs_tally.*field;
  };
  gate.check(sums.requests == total(&Tally::llm) + total(&Tally::retried) +
                                 total(&Tally::fallback) + total(&Tally::shed),
             "BatchReport requests != resolved tickets");
  gate.check(sums.llm == total(&Tally::llm) && sums.retried == total(&Tally::retried) &&
                 sums.fallback == total(&Tally::fallback) && sums.shed == total(&Tally::shed),
             "BatchReport source counts != resolved ticket sources");
  return log;
}

ServeLog run_drains(Stack& stack, const Inputs& in, double seconds, Tracer& tracer,
                    Gate& gate) {
  auto& engine = *stack.engine;
  const auto& spec = in.spec;
  ServeLog log;
  ArenaDelta arena(engine);
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::size_t next = in.warmup.size();
  ReportSums sums;
  while (Clock::now() < t_end &&
         next + static_cast<std::size_t>(spec.drain) <= in.windows.size()) {
    const auto sent = Clock::now();
    std::vector<serve::Ticket> tickets;
    for (int b = 0; b < spec.drain; ++b) {
      const auto s0 = Clock::now();
      tickets.push_back(engine.submit(vp_request(in.windows[next + b], spec.horizon)));
      log.submit_us.push_back(us_between(s0, Clock::now()));
      ++log.vp_tally.offered;
    }
    const auto d0 = Clock::now();
    const auto rep = engine.run();
    const auto d1 = Clock::now();
    const int drain_span = tracer.add("serve.drain", d0, d1);
    log.drain_ms.push_back(ms_between(d0, d1));
    log.drain_size.push_back(static_cast<double>(rep.requests));
    sums.requests += static_cast<std::int64_t>(rep.requests);
    sums.llm += static_cast<std::int64_t>(rep.llm);
    for (int b = 0; b < spec.drain; ++b) {
      const serve::VpResponse* found = nullptr;
      try {
        found = &engine.vp_response(tickets[static_cast<std::size_t>(b)]);
      } catch (const serve::StaleTicket&) {
        gate.check(false, "request unresolved by the run() that drained it");
        continue;
      }
      const auto& resp = *found;
      VpRecord r;
      r.window = static_cast<int>(next) + b;
      r.source = resp.meta.source;
      r.meta = resp.meta;
      r.out = resp.viewports;
      r.t_s = std::chrono::duration<double>(sent - t0).count();
      r.e2e_ms = ms_between(sent, d1);
      tracer.add("vp.request", sent, d1, drain_span, r.window);
      log.vp.push_back(std::move(r));
    }
    next += static_cast<std::size_t>(spec.drain);
  }
  log.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  arena.finish(log);
  for (const auto& r : log.vp) count(log.vp_tally, r.source);
  gate.check(sums.requests == static_cast<std::int64_t>(log.vp.size()),
             "BatchReport requests != resolved tickets");
  gate.check(sums.llm == log.vp_tally.llm, "BatchReport llm count != resolved ticket sources");
  return log;
}

ServeLog run_probe(serve::InferenceEngine& engine, const Inputs& in, int n, bool vp, bool abr,
                   bool cjs, Tracer& tracer, Gate& gate) {
  ServeLog log;
  ArenaDelta arena(engine);
  const auto t0 = Clock::now();
  const auto& windows = in.windows.empty() ? in.train : in.windows;
  // Probe inputs: the workload's own VP windows, and a short BBA-recorded
  // ABR session / FIFO episode made from the same seed.
  const auto probe = make_inputs(Workload::kMixedFlashCrowd, in.seed, 1.0);
  if (abr) engine.begin_abr_session();
  if (cjs) engine.begin_cjs_episode();
  for (int i = 0; i < n; ++i) {
    for (int task = 0; task < 3; ++task) {
      if ((task == 0 && !vp) || (task == 1 && !abr) || (task == 2 && !cjs)) continue;
      serve::Ticket t;
      const auto s0 = Clock::now();
      if (task == 0) {
        t = engine.submit(vp_request(windows[static_cast<std::size_t>(i) % windows.size()],
                                     in.spec.horizon));
      } else if (task == 1) {
        t = engine.submit(serve::AbrRequest{probe.abr[static_cast<std::size_t>(i)].obs});
      } else {
        t = engine.submit(serve::CjsRequest{probe.cjs[static_cast<std::size_t>(i)].obs});
      }
      const auto d0 = Clock::now();
      log.submit_us.push_back(us_between(s0, d0));
      ++(task == 0 ? log.vp_tally : task == 1 ? log.abr_tally : log.cjs_tally).offered;
      const auto rep = engine.run();
      const auto d1 = Clock::now();
      const int span = tracer.add("serve.drain", d0, d1);
      log.drain_ms.push_back(ms_between(d0, d1));
      log.drain_size.push_back(static_cast<double>(rep.requests));
      if (task == 0) {
        const auto& r = engine.vp_response(t);
        log.vp.push_back(
            {0, r.meta.source, false, 0.0, ms_between(s0, d1), r.meta, r.viewports});
        gate.check(finite(r.viewports), "probe VP answer not finite");
        count(log.vp_tally, r.meta.source);
      } else if (task == 1) {
        const auto& r = engine.abr_response(t);
        log.abr.push_back({static_cast<std::size_t>(i), r.meta.source, ms_between(s0, d1),
                           r.meta, r.level});
        engine.observe_abr_result(probe.abr[static_cast<std::size_t>(i)].result,
                                  probe.abr[static_cast<std::size_t>(i)].qoe);
        count(log.abr_tally, r.meta.source);
      } else {
        const auto& r = engine.cjs_response(t);
        log.cjs.push_back({static_cast<std::size_t>(i), r.meta.source, ms_between(s0, d1),
                           r.meta, r.action});
        engine.observe_cjs_reward(probe.cjs[static_cast<std::size_t>(i)].reward);
        count(log.cjs_tally, r.meta.source);
      }
      tracer.add("probe.request", s0, d1, span, i);
    }
  }
  log.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  arena.finish(log);
  return log;
}

void warm_up(serve::InferenceEngine& engine, const Inputs& in, Gate& gate) {
  // Drains of at most 8, so a bounded admission queue sheds none of them.
  constexpr std::size_t kChunk = 8;
  for (std::size_t i = 0; i < in.warmup.size(); i += kChunk) {
    std::vector<serve::Ticket> tickets;
    for (std::size_t j = i; j < std::min(i + kChunk, in.warmup.size()); ++j) {
      const auto& s = in.windows[static_cast<std::size_t>(in.warmup[j])];
      tickets.push_back(engine.submit(vp_request(s, in.spec.horizon)));
    }
    engine.run();
    for (const auto& t : tickets) {
      const auto& r = engine.vp_response(t);
      gate.check(primary(r.meta.source) && finite(r.viewports), "warm-up VP decision failed");
    }
  }
}

bool arena_drained(const serve::InferenceEngine& engine) {
  const auto& arena = engine.kv_arena();
  if (!arena || arena->page_budget() <= 0) return true;
  // Warm prefix entries hold pages as well. One lease of the whole budget
  // evicts them all and fits only if no request's lease is still out;
  // returning it must then bring the arena to exactly zero pages. The
  // reservation is never written, so it costs address space, not memory.
  const auto rows =
      arena->page_budget() / (arena->n_layers() * 2) * engine.config().arena_page_rows;
  try {
    auto whole = arena->lease(rows);
    if (arena->pages_in_use() != arena->page_budget()) return false;
  } catch (const netllm::nn::KvArena::Exhausted&) {
    return false;
  }
  return arena->pages_in_use() == 0;
}

void verify_serving(Stack& stack, const Inputs& in, const ServeLog& log, Gate& gate) {
  auto& engine = *stack.engine;
  const auto& spec = in.spec;
  for (const Tally* t : {&log.vp_tally, &log.abr_tally, &log.cjs_tally}) {
    gate.check(t->llm + t->retried + t->fallback + t->shed + t->rejected == t->offered,
               "llm + retried + fallback + shed + rejected != offered");
  }
  gate.check(arena_drained(engine), "KV arena pages in use after the last drain");
  // Offered is counted at submission; each resolved (or rejected) request
  // leaves exactly one record.
  gate.check(static_cast<std::int64_t>(log.vp.size()) == log.vp_tally.offered,
             "VP requests resolved != offered");
  gate.check(static_cast<std::int64_t>(log.abr.size()) == log.abr_tally.offered &&
                 static_cast<std::int64_t>(log.cjs.size()) == log.cjs_tally.offered,
             "ABR/CJS requests resolved != offered");

  // VP: solo single-lane references on the same adapter with the arena
  // detached (no pooling, no prefix sharing), one request per lane.
  std::vector<int> need(in.windows.size(), 0);
  for (const auto& r : log.vp) {
    if (!r.rejected) gate.check(finite(r.out), "VP answer not finite");
    if (primary(r.source)) need[static_cast<std::size_t>(r.window)] = 1;
  }
  std::vector<std::size_t> todo;
  for (std::size_t w = 0; w < need.size(); ++w) {
    if (need[w]) todo.push_back(w);
  }
  std::vector<std::vector<vp::Viewport>> ref(in.windows.size());
  const auto arena = stack.vp->kv_arena();
  stack.vp->set_kv_arena(nullptr);
  std::exception_ptr ref_error;
  std::mutex ref_mu;
  netllm::core::parallel_for(static_cast<std::int64_t>(todo.size()), 1,
                             [&](std::int64_t lo, std::int64_t hi) {
                               for (auto i = lo; i < hi; ++i) {
                                 const auto w = todo[static_cast<std::size_t>(i)];
                                 const auto& s = in.windows[w];
                                 try {
                                   ref[w] = stack.vp->predict(s.history, s.saliency, spec.horizon);
                                 } catch (...) {
                                   std::lock_guard<std::mutex> lk(ref_mu);
                                   ref_error = std::current_exception();
                                 }
                               }
                             });
  stack.vp->set_kv_arena(arena);
  gate.check(!ref_error, "solo VP reference threw");
  for (const auto& r : log.vp) {
    if (primary(r.source)) {
      gate.check(same_bits(r.out, ref[static_cast<std::size_t>(r.window)]),
                 "VP decision differs from its solo reference (window " +
                     std::to_string(r.window) + ")");
    }
  }

  // ABR / CJS: replay the recorded closed-loop sequence through the same
  // (stateful) adapters, solo, calling the primary exactly where the engine
  // did. Both replays run as two lanes of one parallel_for.
  if (log.abr.empty() && log.cjs.empty()) return;
  netllm::core::parallel_for(2, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (auto lane = lo; lane < hi; ++lane) {
      if (lane == 0) {
        for (const auto& r : log.abr) {
          const auto& ev = in.abr[r.event];
          gate.check(r.level >= 0 && r.level < ev.obs.num_levels, "ABR level out of range");
          gate.check(r.source != Source::kFallback, "unexpected ABR fallback");
          if (ev.session_start) stack.abr->begin_session();
          if (primary(r.source)) {
            gate.check(stack.abr->choose_level(ev.obs) == r.level,
                       "ABR decision differs from its solo reference (event " +
                           std::to_string(r.event) + ")");
          }
          stack.abr->observe_result(ev.result, ev.qoe);
        }
      } else {
        for (const auto& r : log.cjs) {
          const auto& ev = in.cjs[r.event];
          gate.check(r.action.runnable_index >= 0 &&
                         r.action.runnable_index <
                             static_cast<int>(ev.obs.runnable_rows.size()) &&
                         r.action.cap_choice >= 0 &&
                         r.action.cap_choice < netllm::cjs::kNumCapChoices,
                     "CJS action out of range");
          gate.check(r.source != Source::kFallback, "unexpected CJS fallback");
          if (ev.episode_start) stack.cjs->begin_episode();
          if (primary(r.source)) {
            const auto a = stack.cjs->choose(ev.obs);
            gate.check(a.runnable_index == r.action.runnable_index &&
                           a.cap_choice == r.action.cap_choice,
                       "CJS decision differs from its solo reference (event " +
                           std::to_string(r.event) + ")");
          }
          stack.cjs->observe_reward(ev.reward);
        }
      }
    }
  });
}

void restore_initial(Stack& stack) {
  for (std::size_t i = 0; i < stack.vp_trainable.size(); ++i) {
    auto data = stack.vp_trainable[i].second.mutable_data();
    std::copy(stack.vp_initial[i].begin(), stack.vp_initial[i].end(), data.begin());
  }
}

double heldout_loss(const Stack& stack, const Inputs& in) {
  double sum = 0.0;
  for (const auto& s : in.windows) sum += stack.vp->loss(s).item();
  return sum / static_cast<double>(in.windows.size());
}

AdaptLog run_adapt(Stack& stack, const Inputs& in, double seconds, Tracer& tracer,
                   Gate& gate) {
  const auto& spec = in.spec;
  AdaptLog log;
  restore_initial(stack);
  log.heldout_before = heldout_loss(stack, in);
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  for (std::size_t j = 0; j < in.job_seeds.size() && Clock::now() < t_end; ++j) {
    restore_initial(stack);
    const auto j0 = Clock::now();
    const auto st = stack.vp->adapt(in.train, spec.job_steps, spec.lr, in.job_seeds[j]);
    const auto j1 = Clock::now();
    tracer.add("adapt.job", j0, j1, -1, static_cast<std::int64_t>(j));
    log.step_ms.push_back(ms_between(j0, j1) / spec.job_steps);
    log.job_t_s.push_back(std::chrono::duration<double>(j0 - t0).count());
    log.steps += spec.job_steps;
    log.skipped += st.skipped_steps;
    ++log.jobs;
    log.initial_loss.push_back(st.initial_loss);
    log.final_loss.push_back(st.final_loss);
    gate.check(std::isfinite(st.final_loss), "adaptation final loss not finite");
  }
  log.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  log.heldout_after = heldout_loss(stack, in);
  gate.check(log.jobs > 0, "no adaptation job completed");
  gate.check(std::isfinite(log.heldout_after) && log.heldout_after < log.heldout_before,
             "held-out loss did not fall during adaptation");
  gate.check(mean(log.final_loss) < mean(log.initial_loss),
             "final loss not below initial loss (mean over jobs)");
  return log;
}

}  // namespace perfbench
