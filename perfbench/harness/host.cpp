#include "host.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

// Reads up to sizeof(buf)-1 bytes of `path` into `buf`, NUL-terminated.
// Returns false when the file cannot be read.
template <size_t N>
bool Slurp(const char* path, char (&buf)[N]) {
  int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  ssize_t n = ::read(fd, buf, N - 1);
  ::close(fd);
  if (n <= 0) return false;
  buf[n] = '\0';
  return true;
}

// Value of the "<key>" line of a /proc/self/status-style file.
long StatusField(const char* text, const char* key) {
  const char* at = std::strstr(text, key);
  if (at == nullptr) return 0;
  return std::strtol(at + std::strlen(key), nullptr, 10);
}

}  // namespace

Usage ReadUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.vol_cs = ru.ru_nvcsw;
  u.invol_cs = ru.ru_nivcsw;
  return u;
}

HostCpu ReadHostCpu() {
  char buf[1024];
  HostCpu cpu;
  if (!Slurp("/proc/stat", buf)) return cpu;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  unsigned long long f[10] = {};
  int got = std::sscanf(buf, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6],
                        &f[7]);
  if (got < 8) return cpu;
  for (int i = 0; i < 8; ++i) cpu.total += f[i];
  cpu.iowait = f[4];
  cpu.steal = f[7];
  return cpu;
}

int Nproc() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return Nproc();
  return CPU_COUNT(&set);
}

double LoadAvg1() {
  char buf[128];
  if (!Slurp("/proc/loadavg", buf)) return 0;
  return std::strtod(buf, nullptr);
}

int ThreadCount() {
  char buf[4096];
  if (!Slurp("/proc/self/status", buf)) return 0;
  return static_cast<int>(StatusField(buf, "\nThreads:"));
}

double PeakRssMb() {
  char buf[4096];
  if (!Slurp("/proc/self/status", buf)) return 0;
  return static_cast<double>(StatusField(buf, "\nVmHWM:")) / 1024.0;
}

}  // namespace perfbench
