/**
 * @file
 * Invariant-audited fuzz driver over all three serving systems.
 *
 * Sweeps randomized (workload, config) cases through WindServe,
 * DistServe and vLLM with a fail-fast SimAuditor attached. On a
 * violation it prints the auditor's report plus the exact command line
 * that replays the failing case.
 *
 * Usage:
 *   fuzz_runner [--iters=N] [--seed=S] [--jobs=J] [--system=NAME|all]
 *               [--chaos] [--nodes=N] [--replicas=N] [--ctrl-chaos]
 *   fuzz_runner --repro-seed=S --repro-config=NAME [--chaos] [--nodes=N]
 *               [--replicas=N] [--ctrl-chaos] [--log=debug]
 *
 * The repro form runs exactly one case — the one a failure printed —
 * optionally with leveled event logging for post-mortem inspection.
 * --chaos derives a fault schedule (instance crashes, link outages,
 * stragglers) from each case seed and replays it under full audit; a
 * chaos case's repro line carries the flag, so pasting it back
 * reproduces the faults too. --nodes=N replays every case on an
 * N-node cluster (sharded WindServe pods, replicated baselines) and,
 * under chaos, adds node-crash and NIC-outage classes.
 * --replicas=N runs WindServe cases under an N-replica control plane
 * (no RNG draw — a pure parameter); --ctrl-chaos adds leader crashes
 * and control partitions to each case's schedule, drawn strictly after
 * every other axis, and defaults --replicas to 3 when not given
 * explicitly.
 *
 * A malformed value (a bad system name, or a count that is negative,
 * not a number, out of range or below its minimum of 1 for --jobs,
 * --nodes and --replicas) prints the problem and exits 2, as does an
 * unknown argument.
 */
#include <iostream>
#include <stdexcept>
#include <string>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

bool
arg_value(const std::string &arg, const char *key, std::string &out)
{
    std::string prefix = std::string(key) + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

int
repro(std::uint64_t seed, const std::string &config_name, bool chaos,
      std::size_t nodes, std::size_t replicas, bool ctrl_chaos)
{
    harness::SystemKind kind = harness::parse_system_kind(config_name);
    std::cout << "replaying seed " << seed << " on "
              << harness::to_string(kind)
              << (chaos ? " (chaos)" : "")
              << (nodes > 1 ? " (" + std::to_string(nodes) + " nodes)" : "")
              << (replicas > 1
                      ? " (" + std::to_string(replicas) + " replicas)"
                      : "")
              << (ctrl_chaos ? " (ctrl-chaos)" : "")
              << "\n";
    harness::FuzzResult r = harness::run_fuzz_case(
        harness::make_fuzz_config(seed, kind, chaos, nodes, replicas,
                                  ctrl_chaos));
    std::cout << "ok: " << r.audit_events << " events audited, "
              << r.finished << "/" << r.num_requests << " finished";
    if (chaos)
        std::cout << ", " << r.aborted << " aborted";
    std::cout << ", checksum " << std::hex << r.checksum << std::dec
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::FuzzOptions opt;
    opt.jobs = harness::default_jobs();
    bool have_repro_seed = false;
    std::uint64_t repro_seed = 0;
    std::string repro_config = "windserve";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i], v;
        try {
            if (arg_value(arg, "--iters", v)) {
                opt.iterations = harness::parse_count("--iters", v);
            } else if (arg_value(arg, "--seed", v)) {
                opt.base_seed = harness::parse_count("--seed", v);
            } else if (arg_value(arg, "--jobs", v)) {
                opt.jobs = harness::parse_count("--jobs", v, 1);
            } else if (arg_value(arg, "--system", v)) {
                if (v != "all")
                    opt.systems = {harness::parse_system_kind(v)};
            } else if (arg_value(arg, "--repro-seed", v)) {
                have_repro_seed = true;
                repro_seed = harness::parse_count("--repro-seed", v);
            } else if (arg_value(arg, "--repro-config", v)) {
                repro_config = v;
            } else if (arg == "--chaos") {
                opt.chaos = true;
            } else if (arg_value(arg, "--nodes", v)) {
                opt.nodes = harness::parse_count("--nodes", v, 1);
            } else if (arg_value(arg, "--replicas", v)) {
                opt.replicas = harness::parse_count("--replicas", v, 1);
            } else if (arg == "--ctrl-chaos") {
                opt.ctrl_chaos = true;
            } else if (arg_value(arg, "--log", v)) {
                sim::Log::set_level(v == "trace"   ? sim::LogLevel::Trace
                                    : v == "debug" ? sim::LogLevel::Debug
                                                   : sim::LogLevel::Info);
            } else {
                std::cerr << "unknown argument: " << arg << "\n";
                return 2;
            }
        } catch (const std::invalid_argument &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }

    // Control chaos without an explicit replica count gets the
    // canonical 3-replica control plane (1 replica cannot fail over).
    if (opt.ctrl_chaos && opt.replicas <= 1)
        opt.replicas = 3;

    try {
        if (have_repro_seed)
            return repro(repro_seed, repro_config, opt.chaos, opt.nodes,
                         opt.replicas, opt.ctrl_chaos);

        std::cout << "fuzzing " << opt.iterations << " cases x "
                  << opt.systems.size() << " systems (base seed "
                  << opt.base_seed << ", " << opt.jobs << " jobs"
                  << (opt.chaos ? ", chaos" : "")
                  << (opt.nodes > 1
                          ? ", " + std::to_string(opt.nodes) + " nodes"
                          : "")
                  << (opt.replicas > 1
                          ? ", " + std::to_string(opt.replicas) +
                                " replicas"
                          : "")
                  << (opt.ctrl_chaos ? ", ctrl-chaos" : "")
                  << ")\n";
        harness::FuzzSummary sum = harness::run_fuzz(opt);
        std::cout << sum.results.size() << " cases, "
                  << sum.total_events << " events audited, "
                  << sum.total_violations << " violations\n";
        return sum.total_violations == 0 ? 0 : 1;
    } catch (const audit::InvariantViolation &e) {
        // what() ends with the replayable "--repro-seed=S
        // --repro-config=NAME" line; pass it back to this binary.
        std::cerr << "INVARIANT VIOLATION\n" << e.what() << "\n"
                  << "replay with: fuzz_runner <repro flags above>"
                  << " [--log=debug]\n";
        return 1;
    }
}
