/**
 * @file
 * stm_perfbench — the repository's end-to-end benchmark.
 *
 *   stm_perfbench --workload diagnose|evaluate|fleet --seed N
 *                 --seconds S --trace 0|1
 *
 * Runs one workload in-process for about S seconds (whole passes
 * only), checks every operation's output against the expected
 * outcome, and prints a host/build stamp followed by one JSON result
 * line. --trace 0 reports the end-to-end metrics with tracing off;
 * --trace 1 alternates untraced and traced passes and reports the
 * per-layer metrics. Exit status is 0 only when every operation was
 * correct.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hh"
#include "exec/run_pool.hh"

using namespace perfbench;

namespace
{

bool
parse(int argc, char **argv, Args *out)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            out->workload = value;
        } else if (arg == "--seed") {
            out->seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            out->seconds = std::strtod(value.c_str(), &end);
            if (!(out->seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return false;
            out->trace = value == "1";
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return out->workload == "diagnose" || out->workload == "evaluate" ||
           out->workload == "fleet";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parse(argc, argv, &args)) {
        std::cerr << "usage: stm_perfbench --workload "
                     "diagnose|evaluate|fleet --seed N --seconds S "
                     "--trace 0|1\n";
        return 2;
    }
    args.hostJobs = stm::defaultJobs();
    stm::setDefaultJobs(kJobs);
    std::cout << "# stamp " << stampJson(args) << std::endl;

    Result result;
    try {
        if (args.workload == "diagnose")
            runDiagnose(args, result);
        else if (args.workload == "evaluate")
            runEvaluate(args, result);
        else
            runFleet(args, result);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
    if (result.attempted() == 0) {
        std::cerr << "perfbench: no operation completed\n";
        return 1;
    }
    result.set("failed_frac",
               static_cast<double>(result.failed()) /
                   static_cast<double>(result.attempted()));
    if (!args.trace)
        result.set("peak_rss_mb", peakRssMb());
    std::cout << result.json(args.trace) << std::endl;
    return result.ok() ? 0 : 1;
}
