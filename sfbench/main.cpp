// sfbench: one benchmark workload per process.
//
//   sfbench --workload NAME --seed N --seconds S [--trace-dir DIR]
//           [--work-dir DIR]
//
// Prints one JSON line (the raw report run.py turns into the benchmark's
// result) and exits 0 when every correctness check passed, 1 when one
// failed, 2 on a usage or runtime error. See README.md for the workloads.
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using sfbench::Options;
using sfbench::Report;

void jsonString(const std::string& s) {
  std::putchar('"');
  for (const unsigned char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (c < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void jsonMetrics(const char* key, const std::map<std::string, double>& m) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    if (!first) std::putchar(',');
    first = false;
    jsonString(name);
    if (std::isfinite(v)) {
      std::printf(":%.17g", v);
    } else {
      std::printf(":null");
    }
  }
  std::putchar('}');
}

void printReport(const Options& opt, const Report& r) {
  std::uint64_t failedChecks = 0;
  for (const auto& c : r.checks) failedChecks += c.ok ? 0 : 1;
  std::printf("{\"workload\":");
  jsonString(opt.workload);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"checks\":[",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed + failedChecks));
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    std::printf("%s{\"name\":", i == 0 ? "" : ",");
    jsonString(r.checks[i].name);
    std::printf(",\"ok\":%s,\"detail\":", r.checks[i].ok ? "true" : "false");
    jsonString(r.checks[i].detail);
    std::putchar('}');
  }
  std::putchar(']');
  jsonMetrics("e2e", r.e2e);
  jsonMetrics("layer", r.layer);
  jsonMetrics("info", r.info);
  std::printf("}\n");
  std::fflush(stdout);
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::stoull(v);
    } else if (k == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (k == "--trace-dir") {
      opt.traceDir = v;
    } else if (k == "--work-dir") {
      opt.workDir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0 &&
         opt.seconds <= 600;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: sfbench --workload NAME --seed N --seconds S "
                   "[--trace-dir DIR] [--work-dir DIR]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfbench: bad argument: %s\n", e.what());
    return 2;
  }
  if (opt.workDir.empty()) opt.workDir = "sfbench-work";

  using Runner = Report (*)(const Options&);
  const std::map<std::string, Runner> workloads = {
      {"map-small-read", sfbench::runMapSmallRead},
      {"tree-large-write", sfbench::runTreeLargeWrite},
      {"serve-zipf-read", sfbench::runServeZipfRead},
      {"ckpt-move", sfbench::runCkptMove},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "sfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  try {
    Report r = it->second(opt);
    r.e2e["rss_peak_mb"] = sfbench::peakRssMiB();
    printReport(opt, r);
    for (const auto& c : r.checks) {
      if (!c.ok) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
}
