// zssim — generates MRT archives from the calibrated scenarios, so the
// zsdetect CLI (and any MRT consumer) has realistic data to chew on.
//
//   zssim ris2018|ris2017oct|ris2017mar|longlived2024 [output-prefix]
//         [--causal-sample-rate R] [telemetry options]
//
// Writes <prefix>.updates.mrt (and <prefix>.ribs.mrt for
// longlived2024). Defaults the prefix to the scenario name.
// --causal-sample-rate sets the probability that each *announcement*
// wave is causally traced (withdrawals are always traced; default
// 0.01). The telemetry options are the ones every long-running tool
// shares (obs/session.hpp): --metrics-out, --trace-out, --journal-out
// (the fault-injection / collector event journal; its `propagation`
// category feeds zsroot), --journal-categories, --http-port,
// --profile-out, --heap-out and --version (see DESIGN.md,
// "Observability").

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mrt/codec.hpp"
#include "obs/causal.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "scenarios/longlived2024.hpp"
#include "scenarios/ris_replication.hpp"

using namespace zombiescope;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s ris2018|ris2017oct|ris2017mar|longlived2024 [output-prefix]\n"
               "          [--causal-sample-rate R]\n%s",
               argv0, obs::Session::kUsage);
  std::exit(2);
}

int run_scenario(const std::string& which, const std::string& prefix) {
  if (which == "longlived2024") {
    scenarios::LongLived2024Spec spec;
    std::fprintf(stderr, "simulating the 2024 beacon experiment (~1 year of RIB dumps)...\n");
    const auto out = scenarios::run_longlived2024(spec);
    {
      obs::ScopedSpan write_span("zssim.write_mrt");
      mrt::write_file(prefix + ".updates.mrt", out.updates);
      mrt::write_file(prefix + ".ribs.mrt", out.rib_dumps);
    }
    std::printf("wrote %s.updates.mrt (%zu records) and %s.ribs.mrt (%zu records)\n",
                prefix.c_str(), out.updates.size(), prefix.c_str(), out.rib_dumps.size());
    std::printf("detect with:\n  zsdetect --updates %s.updates.mrt --ribs %s.ribs.mrt \\\n"
                "           --schedule fifteen --start 2024-06-10 --end 2024-06-23 "
                "--filter-noisy\n",
                prefix.c_str(), prefix.c_str());
    return 0;
  }

  scenarios::RisPeriodSpec spec;
  if (which == "ris2018") spec = scenarios::period_2018jul();
  else if (which == "ris2017oct") spec = scenarios::period_2017oct();
  else if (which == "ris2017mar") spec = scenarios::period_2017mar();
  else {
    std::fprintf(stderr, "error: unknown scenario '%s'\n", which.c_str());
    return 2;
  }
  std::fprintf(stderr, "simulating RIS period %s...\n", spec.label.c_str());
  const auto out = scenarios::run_ris_period(spec);
  {
    obs::ScopedSpan write_span("zssim.write_mrt");
    mrt::write_file(prefix + ".updates.mrt", out.updates);
  }
  std::printf("wrote %s.updates.mrt (%zu records)\n", prefix.c_str(), out.updates.size());
  std::printf("detect with:\n  zsdetect --updates %s.updates.mrt --schedule ris \\\n"
              "           --start %s --end %s --filter-noisy --root-cause\n",
              prefix.c_str(), netbase::format_date(spec.start).c_str(),
              netbase::format_date(spec.end).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::Session session("zssim", obs::Session::Kind::kBatch);
  std::vector<std::string> positional;
  const bool parsed = session.parse(argc, argv, [&](const std::string& arg, const auto& value) {
    if (arg == "--causal-sample-rate") obs::causal_set_announce_sample_rate(std::stod(value()));
    else if (!arg.empty() && arg[0] == '-') return false;
    else positional.push_back(arg);
    return true;
  });
  if (!parsed || positional.empty() || positional.size() > 2) usage(argv[0]);
  const std::string which = positional[0];
  const std::string prefix = positional.size() > 1 ? positional[1] : which;
  if (!session.start() || !session.serve("/metrics")) return 1;

  int rc = 0;
  {
    // Root of the span tree; every scenario stage nests under it.
    obs::ScopedSpan root("zssim.run");
    rc = run_scenario(which, prefix);
  }
  return session.finish() ? rc : 1;
}
