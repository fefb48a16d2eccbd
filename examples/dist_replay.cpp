// Replays one cross-site sweep configuration from a config file (the
// tests/corpus/dist/*.txt format) and reports the certification verdict:
//
//   dist_replay <config-file>           run + certify, print a summary
//   dist_replay <config-file> --trace   also dump the merged cross-site
//                                       trace (site-stamped parse.h
//                                       history + '#' fault lines)
//
// Exit status 0 iff every probe and checker passed — a failing seed's
// config file is a self-contained, deterministic bug report.
#include "replay_main.h"
#include "sim/dist_sweep.h"

int main(int argc, char** argv) {
  return replay_main<argus::DistSweepCase>(
      argc, argv,
      [](const argus::DistSweepCase& config,
         const argus::DistCaseResult& result) {
        std::cout << "protocol:        " << to_string(config.protocol) << "\n"
                  << "sites:           " << config.sites << "\n"
                  << "seed:            " << config.plan.seed << "\n"
                  << "faults injected: " << result.faults_injected << "\n"
                  << "site fails:      " << result.stats.site_fails << " ("
                  << result.stats.site_recovers << " recoveries)\n"
                  << "committed:       " << result.committed << " ("
                  << result.stats.two_pc_commits << " two-phase)\n"
                  << "aborted:         " << result.aborted << "\n"
                  << "promoted:        " << result.stats.promoted_commits << "\n"
                  << "presumed aborts: " << result.stats.presumed_aborts << "\n"
                  << "catch-up txns:   " << result.stats.catchup_txns << "\n"
                  << "coord crashes:   " << result.stats.coord_crashes << " ("
                  << result.stats.coord_recovers << " recoveries)\n"
                  << "decisions:       " << result.stats.decisions_logged << "\n"
                  << "messages lost:   " << result.stats.msgs_lost << "\n"
                  << "termination:     "
                  << result.stats.termination_promoted +
                         result.stats.termination_peer_promotions
                  << " promotions\n";
      });
}
