// The main() body both sweep replay examples share: read a case file (the
// tests/corpus/** format), parse it, run and certify it, print the
// sweep's own summary and the verdict, and with --trace dump the
// replayable trace. Exit status 0 iff every probe and checker passed —
// a failing seed's config file is a self-contained, deterministic bug
// report.
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

template <typename Case, typename Summarize>
int replay_main(int argc, char** argv, Summarize summarize) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " <config-file> [--trace]\n";
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  Case config;
  std::string error;
  if (!parse_case(text.str(), &config, &error)) {
    std::cerr << argv[1] << ": " << error << "\n";
    return 2;
  }

  const auto result = run_case(config);
  summarize(config, result);
  std::cout << "verdict:         " << (result.ok ? "CERTIFIED" : "FAILED")
            << "\n";
  if (!result.ok) std::cout << result.failure << "\n";
  if (argc > 2 && std::string(argv[2]) == "--trace") {
    std::cout << "\n" << result.trace;
  }
  return result.ok ? 0 : 1;
}
