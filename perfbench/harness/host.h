// Process and host readings: CPU time, context switches, thread count,
// peak RSS, and the host's steal/iowait share and load average. All of
// them read /proc or getrusage into stack buffers, so sampling them
// during a measured phase adds nothing to the heap-allocation count.
#pragma once

#include <cstdint>

namespace perfbench {

struct Usage {
  double cpu_s = 0;    // user + sys, whole process
  int64_t vol_cs = 0;  // voluntary context switches (blocked, then woken)
  int64_t invol_cs = 0;
};
Usage ReadUsage();

// Aggregate "cpu" line of /proc/stat, in clock ticks.
struct HostCpu {
  uint64_t total = 0;
  uint64_t iowait = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

int Nproc();
// CPUs this process may run on (its affinity mask).
int AllowedCpus();
double LoadAvg1();
// Current thread count of this process; 0 if unreadable.
int ThreadCount();
// VmHWM (peak resident set) in MiB; 0 if unreadable.
double PeakRssMb();

}  // namespace perfbench
