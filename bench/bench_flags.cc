#include "bench/bench_flags.h"

#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace tcplat {
namespace {

// True when the usage string `accepted` names `flag` as a whole token, so
// "[--timeline-csv PATH]" does not name --timeline.
bool Names(std::string_view accepted, std::string_view flag) {
  for (size_t pos = accepted.find("--"); pos != std::string_view::npos;
       pos = accepted.find("--", pos + 2)) {
    size_t end = pos + 2;
    while (end < accepted.size() &&
           (std::isalnum(static_cast<unsigned char>(accepted[end])) || accepted[end] == '-')) {
      ++end;
    }
    if (accepted.substr(pos, end - pos) == flag) {
      return true;
    }
  }
  return false;
}

// Parses a count flag's value: a whole decimal number >= 1.
bool ParseCount(const char* v, long* out) {
  char* end = nullptr;
  *out = std::strtol(v, &end, 10);
  return end != v && *end == '\0' && *out >= 1 && *out <= INT_MAX;
}

// Matches `--name=value` or `--name value`. Returns the value, or nullptr
// when argv[*i] is not this flag. Advances *i past a detached value.
const char* FlagValue(int argc, char** argv, int* i, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(argv[*i], name, len) != 0) {
    return nullptr;
  }
  const char* rest = argv[*i] + len;
  if (*rest == '=') {
    return rest + 1;
  }
  if (*rest == '\0' && *i + 1 < argc) {
    return argv[++*i];
  }
  return nullptr;
}

}  // namespace

bool ParseBenchFlags(int argc, char** argv, BenchFlags* flags, const char* accepted) {
  const auto usage = [&](std::string_view flag, const char* reason) {
    std::fprintf(stderr, "%s: %.*s %s\nusage: %s %s\n", argv[0], static_cast<int>(flag.size()),
                 flag.data(), reason, argv[0], accepted);
    return false;
  };
  long count = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(0, arg.find('='));
    if (!Names(accepted, name)) {
      return usage(name, "is not a flag of this binary");
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      flags->quick = true;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--trace-sample-flows")) {
      if (!ParseCount(v, &count)) return usage(name, "needs a count >= 1");
      flags->trace_sample_flows = static_cast<uint32_t>(count);
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--timeline-csv")) {
      flags->timeline_csv_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--timeline-period-us")) {
      flags->timeline_period_us = std::strtoll(v, nullptr, 10);
      continue;
    }
    if (std::strcmp(argv[i], "--timeline") == 0) {
      flags->timeline = true;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--bin-out")) {
      flags->bin_out_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--from-binary")) {
      flags->from_binary_path = v;
      continue;
    }
    if (std::strncmp(argv[i], "--trace", 7) == 0 &&
        (argv[i][7] == '\0' || argv[i][7] == '=')) {
      flags->trace = true;
      if (argv[i][7] == '=') {
        flags->trace_path = argv[i] + 8;
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        // Bare `--trace` is a valid toggle, so only a non-flag successor is
        // taken as its path.
        flags->trace_path = argv[++i];
      }
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--seed")) {
      flags->seed = std::strtoull(v, nullptr, 10);
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--jobs")) {
      flags->jobs = static_cast<int>(std::strtol(v, nullptr, 10));
      if (flags->jobs > 0) {
        ::setenv("TCPLAT_JOBS", v, /*overwrite=*/1);
      }
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--out")) {
      flags->out_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--size")) {
      flags->size = static_cast<size_t>(std::strtoull(v, nullptr, 10));
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--flows")) {
      if (!ParseCount(v, &count)) return usage(name, "needs a count >= 1");
      flags->flows = static_cast<int>(count);
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--csv")) {
      flags->csv_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--perf")) {
      flags->perf_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--congestion")) {
      flags->congestion_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--baseline-dir")) {
      flags->baseline_dir = v;
      continue;
    }
    if (std::strcmp(argv[i], "--write-baseline") == 0) {
      flags->write_baseline = true;
      continue;
    }
    if (std::strcmp(argv[i], "--selftest") == 0) {
      flags->selftest = true;
      continue;
    }
    return usage(name, "is malformed or missing its value");
  }
  return true;
}

}  // namespace tcplat
