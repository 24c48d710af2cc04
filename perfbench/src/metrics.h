// Measurement helpers of the load generator: a latency histogram, named
// metric output, and process probes (rusage, /proc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Durations in log-spaced buckets 0.2 % wide, from 10 ns to ~30 min.
// Quantiles interpolate by rank inside the bucket, so a quantile moves
// with the samples instead of snapping to a bucket edge.
class LogHistogram {
 public:
  LogHistogram();
  void Add(int64_t ns);
  void Merge(const LogHistogram& other);
  // Quantile q in [0, 1] in nanoseconds; 0 when empty.
  double QuantileNs(double q) const;
  uint64_t count() const { return count_; }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Process-wide counters from getrusage(RUSAGE_SELF).
struct ProcUsage {
  double user_s = 0;
  double sys_s = 0;
  uint64_t ctx_switches = 0;  // voluntary + involuntary
  double max_rss_mib = 0;
};
ProcUsage ReadProcUsage();

// Host-wide CPU time from /proc/stat, in clock ticks: `steal` is time
// the hypervisor ran other guests while this VM wanted the CPU.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpu ReadHostCpu();

// Threads of this process, from /proc/self/status (0 if unreadable).
int ReadThreadCount();

// CPU time (user + sys) of the calling thread, from getrusage(RUSAGE_THREAD).
double ThreadCpuSeconds();

// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

// Host and build fingerprint as a JSON object.
std::string FingerprintJson();

// Appends `s` to `out` as a JSON string literal.
void AppendJsonString(std::string* out, const std::string& s);

}  // namespace perfbench
