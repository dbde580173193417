// Machine fingerprint and metric reporting.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Fingerprint {
  std::string cpu_model;
  std::string isa;  // widest SIMD flavors the CPU reports
  unsigned vcpus = 0;
  std::string compiler;
  std::string build_type;
  std::string opt_flags;
  bool optimized = false;
};

Fingerprint fingerprint();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  /// Shown next to the value; "n/a: ..." marks a metric that does not
  /// apply to the workload (its value is then only the replay's
  /// bookkeeping floor).
  std::string note;
};

/// One metric per line, "name = value unit  (note)".
void print_metrics(std::FILE* out, const std::vector<Metric>& metrics);

std::string json_escape(const std::string& s);

/// The result object: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
