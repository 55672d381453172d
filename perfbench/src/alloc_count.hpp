// Allocation counter from outside the program: the benchmark executable
// replaces the global operator new/delete (alloc_count.cpp) and counts every
// allocation and its bytes while a window is open, on any thread.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Counts {
  std::int64_t allocs = 0;
  std::int64_t bytes = 0;
};

/// Opens a counting window (resetting the counts).
void start();
/// Closes the window and returns what was allocated inside it.
Counts stop();

}  // namespace perfbench::alloc
