// Replays one fault-sweep configuration from a config file (the
// tests/corpus/*.txt format) and reports the certification verdict:
//
//   fault_replay <config-file>           run + certify, print a summary
//   fault_replay <config-file> --trace   also dump the combined trace
//                                        (parse.h history + '#' fault
//                                        lines, replayable through
//                                        check_history_file)
//
// Exit status 0 iff every probe and checker passed — a failing seed's
// config file is a self-contained, deterministic bug report.
#include "replay_main.h"
#include "sim/fault_sweep.h"

int main(int argc, char** argv) {
  return replay_main<argus::FaultSweepCase>(
      argc, argv,
      [](const argus::FaultSweepCase& config,
         const argus::FaultCaseResult& result) {
        std::cout << "protocol:        " << to_string(config.protocol) << "\n"
                  << "seed:            " << config.plan.seed << "\n"
                  << "crash point:     " << to_string(config.plan.crash_point)
                  << " (arrival " << config.plan.crash_at_arrival << ")\n"
                  << "crashed mid-run: "
                  << (result.crashed_mid_run ? "yes" : "no") << "\n"
                  << "faults injected: " << result.faults_injected << "\n"
                  << "committed:       " << result.committed << "\n"
                  << "aborted:         " << result.aborted << "\n"
                  << "log records:     " << result.log_records << "\n";
      });
}
