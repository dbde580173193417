#include "report.hpp"

#include <cstdint>
#include <cstring>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_OPT_FLAGS
#define PERFBENCH_OPT_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

/// CPU brand string straight from CPUID (no file reads).
std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) == 0 ||
      eax < 0x80000004u) {
    return "unknown";
  }
  char brand[49] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    unsigned regs[4] = {};
    __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * leaf, regs, sizeof(regs));
  }
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

std::string isa_flags() {
  std::string isa;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) isa += "sse4.2 ";
  if (__builtin_cpu_supports("avx2")) isa += "avx2 ";
  if (__builtin_cpu_supports("avx512f")) isa += "avx512f ";
#endif
  if (!isa.empty()) isa.pop_back();
  return isa.empty() ? "baseline" : isa;
}

}  // namespace

Fingerprint fingerprint() {
  Fingerprint f;
  f.cpu_model = cpu_brand();
  f.isa = isa_flags();
  f.vcpus = std::thread::hardware_concurrency();
#if defined(__clang__)
  f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  f.compiler = std::string("gcc ") + __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.opt_flags = PERFBENCH_OPT_FLAGS;
#if defined(__OPTIMIZE__)
  f.optimized = true;
#endif
  return f;
}

void print_metrics(std::FILE* out, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::fprintf(out, "  %-28s = %14.6g %-8s%s%s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.empty() ? "" : "  ",
                 m.note.c_str());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    os << (i ? ", " : "") << "\"" << json_escape(metrics[i].name)
       << "\": {\"value\": " << value << ", \"unit\": \""
       << json_escape(metrics[i].unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
