// Whole-process count of global operator new calls, for
// heap_allocs_per_call. heap_count.cpp replaces the global allocation
// functions in the perfbench binary only; each thread bumps its own
// cache-line slot, and HeapAllocs() sums the slots at phase boundaries.
#pragma once

#include <cstdint>

namespace perfbench {

// operator new / new[] calls since process start, all threads.
uint64_t HeapAllocs();

}  // namespace perfbench
