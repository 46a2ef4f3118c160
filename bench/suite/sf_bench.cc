// sf_bench: the repository benchmark. One process runs one workload:
//
//   sf_bench --workload pipeline|serve_small|serve_bulk|serve_multitenant
//            --seed N --seconds S --trace 0|1
//            [--trace-file run.trace.json] [--work-dir DIR] [--commit SHA]
//
// The seed drives every generated input (tables, arrival times, request
// seeds); the program under test only receives those inputs. Output: one
// "name workload value unit [n=samples]" line per metric, an "env" line,
// and as the last line a JSON object {correct, attempted, failed, metrics}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). A traced run writes the library's spans to --trace-file as a
// Chrome trace. The exit code is non-zero when a correctness check failed.
// bench/suite/run.py builds this binary and is the usual entry point.

#include <sched.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "suite.h"
#include "tensor/gemm.h"

namespace {

using sfbench::RunOptions;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

// What a number depends on besides the code: runs whose nproc, thread
// count or GEMM path differ are not comparable.
std::string EnvJson(const std::string& commit) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(Nproc()) +
         ", \"threads\": " + std::to_string(silofuse::NumThreads()) +
         ", \"gemm_simd\": " + (silofuse::GemmUsesSimd() ? "true" : "false") +
         ", \"compiler\": \"" + JsonEscape(compiler) + "\"" +
         ", \"build_type\": \"" SF_BENCH_BUILD_TYPE "\"" +
         ", \"cpu\": \"" + JsonEscape(CpuModel()) + "\"" +
         ", \"commit\": \"" + JsonEscape(commit) + "\"}";
}

int Usage(const char* why) {
  std::cerr << "sf_bench: " << why
            << "\nusage: sf_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--trace-file F] [--work-dir D] [--commit C]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.work_dir = "sf_bench_work";
  std::string trace_file;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  using RunFn = silofuse::Status (*)(const RunOptions&, sfbench::Sheet*);
  RunFn run = nullptr;
  if (options.workload == "pipeline") run = sfbench::RunPipeline;
  if (options.workload == "serve_small") run = sfbench::RunServeSmall;
  if (options.workload == "serve_bulk") run = sfbench::RunServeBulk;
  if (options.workload == "serve_multitenant") run = sfbench::RunServeMultitenant;
  if (run == nullptr) return Usage("unknown --workload");

  options.work_dir += "/" + options.workload + "-" + std::to_string(getpid());
  sfbench::Sheet sheet;
  const silofuse::Status status = run(options, &sheet);
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  if (!status.ok()) {
    std::cerr << "sf_bench: " << options.workload
              << " could not run: " << status.ToString() << "\n";
    return 1;
  }
  if (options.trace && !trace_file.empty()) {
    const silofuse::Status written = silofuse::obs::WriteTraceJson(trace_file);
    if (!written.ok()) sheet.Fail(written.ToString());
  }
  std::cout << "env " << EnvJson(commit) << "\n";
  return sheet.Print(options.workload, options.trace) ? 0 : 1;
}
