// Replacement global operator new/delete for the benchmark executable only.
// Counting is off except inside an alloc::start()/stop() window, so the
// rest of a run pays one relaxed load per allocation.
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_bytes{0};

void note(std::size_t n) {
  if (g_on.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  }
}

void* allocate(std::size_t n) {
  note(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  note(n);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = (n + a - 1) / a * a;  // aligned_alloc wants a multiple
  if (void* p = std::aligned_alloc(a, size == 0 ? a : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench::alloc {

void start() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
  g_on.store(true, std::memory_order_seq_cst);
}

Counts stop() {
  g_on.store(false, std::memory_order_seq_cst);
  return {g_allocs.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench::alloc

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) { return allocate_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return allocate_aligned(n, al); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
