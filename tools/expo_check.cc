// expo_check: validates a Prometheus text exposition payload.
//
// Usage: expo_check <payload-file|->
//
// Reads the payload from the named file (or stdin for "-"), runs the same
// parser sf_top uses (lib/scrape.h), and exits 0 when the payload is clean:
// every line parses, names match the exposition grammar, no duplicate
// series, no family declared with two types. On failure the offending line
// is named on stderr and the exit code is 1. CI's scrape-smoke job runs
// this against a live /metrics response.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "lib/scrape.h"

namespace {

int Run(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: expo_check <payload-file|->\n";
    return 2;
  }
  std::string text;
  const std::string arg = argv[1];
  if (arg == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(arg);
    if (!in) {
      std::cerr << "expo_check: cannot open " << arg << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  const silofuse::Status status = silofuse::obs::ValidateExposition(text);
  if (!status.ok()) {
    std::cerr << "expo_check: INVALID: " << status.ToString() << "\n";
    return 1;
  }
  const auto doc = silofuse::obs::ParseExposition(text);
  std::cout << "expo_check: OK (" << doc.Value().series.size()
            << " series, " << doc.Value().types.size() << " typed families)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
