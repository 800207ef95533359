// Counting replacements for the global allocation functions (the pattern
// of bench/heap_count.cpp, with per-thread counters so that many ORB
// threads allocating at once do not contend on one cache line). Only the
// plain forms are replaced; the aligned forms keep the library defaults.
#include "heap_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Threads are dealt slots round-robin. Slot sharing after wrap-around is
// harmless: the adds are atomic, only the sum is ever read.
constexpr uint32_t kSlots = 128;
constexpr uint32_t kNoSlot = ~0u;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<uint32_t> g_next_slot{0};
// Constant-initialised, so the first allocation of a thread needs no TLS
// constructor (which could itself allocate).
thread_local uint32_t t_slot = kNoSlot;

void CountOne() {
  if (t_slot == kNoSlot) {
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  g_slots[t_slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t n) {
  CountOne();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

uint64_t HeapAllocs() {
  uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  CountOne();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  CountOne();
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
