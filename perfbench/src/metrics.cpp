#include "metrics.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

constexpr double kMinNs = 10.0;
constexpr double kGrowth = 1.002;
const double kLogGrowth = std::log(kGrowth);
constexpr size_t kBuckets = 13000;  // 10 ns * 1.002^13000 ~ 1.9e12 ns

}  // namespace

LogHistogram::LogHistogram() : buckets_(kBuckets, 0) {}

void LogHistogram::Add(int64_t ns) {
  double v = std::max(static_cast<double>(ns), kMinNs);
  size_t index = static_cast<size_t>(std::log(v / kMinNs) / kLogGrowth);
  buckets_[std::min(index, kBuckets - 1)] += 1;
  count_ += 1;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::QuantileNs(double q) const {
  if (count_ == 0) return 0;
  double rank = q * static_cast<double>(count_ - 1);
  uint64_t before = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(before + c)) {
      double frac = (rank - static_cast<double>(before) + 0.5) /
                    static_cast<double>(c);
      return kMinNs * std::pow(kGrowth, static_cast<double>(i) + frac);
    }
    before += c;
  }
  return kMinNs * std::pow(kGrowth, static_cast<double>(kBuckets));
}

ProcUsage ReadProcUsage() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

HostCpu ReadHostCpu() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  HostCpu cpu;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    cpu.total += value;
    if (field == 7) cpu.steal = value;
  }
  return cpu;
}

double ThreadCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

int ReadThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

std::string FingerprintJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  struct utsname uts {};
  std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
  std::string out = "{\"nproc\": ";
  out += std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu\": ";
  AppendJsonString(&out, cpu);
  out += ", \"kernel\": ";
  AppendJsonString(&out, kernel);
  out += ", \"compiler\": ";
#ifdef __clang__
  AppendJsonString(&out, std::string("clang ") + __clang_version__);
#else
  AppendJsonString(&out, std::string("gcc ") + __VERSION__);
#endif
  out += ", \"build_type\": ";
  AppendJsonString(&out, MDOS_BENCH_BUILD_TYPE);
  out += "}";
  return out;
}

}  // namespace perfbench
