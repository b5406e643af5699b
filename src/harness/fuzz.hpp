/**
 * @file
 * Property-based fuzzing of the serving systems under invariant audit.
 *
 * Each fuzz case is a randomized (workload, config) pair derived purely
 * from a 64-bit seed, replayed through one of the three systems with a
 * fail-fast audit::SimAuditor attached. Properties checked per case:
 *
 *  - zero invariant violations (the auditor throws otherwise, carrying
 *    the replayable `--repro-seed=S --repro-config=...` line);
 *  - determinism: the same seed produces bit-identical per-request
 *    results, summarised as an order-independent FNV checksum that the
 *    tests compare across repeat runs and across thread counts.
 *
 * Configs deliberately stress the memory machinery: small KV capacity
 * overrides force swap-outs and migrations, tiny host pools force the
 * pool-full parking path, and disabled swapping exercises the
 * park-in-queue fallback.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace windserve::harness {

/** Outcome of one audited fuzz case. */
struct FuzzResult {
    std::uint64_t seed = 0;
    std::string system_name;
    std::uint64_t audit_events = 0;     ///< invariant checks performed
    std::uint64_t audit_violations = 0; ///< 0 unless fail_fast was off
    std::size_t num_requests = 0;
    std::size_t finished = 0;
    std::size_t unfinished = 0;
    std::size_t aborted = 0;            ///< chaos mode: retry cap exceeded
    std::uint64_t generated_tokens = 0; ///< sum over all requests
    std::uint64_t checksum = 0;         ///< FNV over per-request results
};

/** Options of a fuzz campaign. */
struct FuzzOptions {
    /** Randomized cases per system. */
    std::size_t iterations = 70;
    /** Case i of a system uses seed base_seed + i. */
    std::uint64_t base_seed = 1;
    /** Worker threads (cases are independent; results are slot-ordered
     *  so the output is identical at any thread count). */
    std::size_t jobs = 1;
    /** Systems to sweep; defaults to all three. */
    std::vector<SystemKind> systems = {SystemKind::WindServe,
                                       SystemKind::DistServe,
                                       SystemKind::Vllm};
    /** Chaos mode: derive a fault schedule from each case seed and run
     *  it under full audit (crash edges enabled). */
    bool chaos = false;
    /** Cluster axis: replay every case on an N-node cluster (sharded
     *  WindServe pods, replicated baselines). 1 = the historical
     *  single-node campaign, byte-identical to the pre-cluster fuzzer.
     *  With chaos, N > 1 additionally draws node-crash and NIC-outage
     *  dials (strictly after all single-node draws). */
    std::size_t nodes = 1;
    /** Control replicas per WindServe case (pure parameter, no draw).
     *  1 keeps the historical immortal-coordinator campaign. */
    std::size_t replicas = 1;
    /** Control-plane chaos: derive leader-crash / control-partition
     *  dials for each case (drawn strictly after every existing axis,
     *  so the flag never perturbs a historical case). Meaningful with
     *  replicas >= 2. */
    bool ctrl_chaos = false;
};

/** Aggregated outcome of a campaign (all cases, in deterministic order). */
struct FuzzSummary {
    std::vector<FuzzResult> results;
    std::uint64_t total_events = 0;
    std::uint64_t total_violations = 0;
};

/**
 * Derive the randomized experiment config of fuzz case @p seed on
 * @p system. Pure function of its arguments. With @p chaos the config
 * additionally carries a seed-derived fault schedule; the chaos draws
 * come after every base draw, so a case's fault-free config is
 * untouched by the flag. @p nodes > 1 runs the case on a multi-node
 * cluster; its extra chaos draws come after every chaos draw, so the
 * node axis never perturbs a single-node case either.
 * @p replicas (pure parameter, no draw) runs WindServe cases under a
 * replicated control plane; @p ctrl_chaos adds leader-crash /
 * control-partition dials, drawn strictly after every other axis.
 */
ExperimentConfig make_fuzz_config(std::uint64_t seed, SystemKind system,
                                  bool chaos = false,
                                  std::size_t nodes = 1,
                                  std::size_t replicas = 1,
                                  bool ctrl_chaos = false);

/** Order-independent FNV-1a checksum of per-request outcomes. */
std::uint64_t result_checksum(const std::vector<workload::Request> &requests);

/**
 * Run one audited case. Throws audit::InvariantViolation (fail-fast)
 * if any invariant breaks; the exception message contains the repro
 * line.
 */
FuzzResult run_fuzz_case(const ExperimentConfig &cfg);

/** Convenience: run_fuzz_case(make_fuzz_config(seed, system)). */
FuzzResult run_fuzz_case(std::uint64_t seed, SystemKind system);

/**
 * Run a full campaign (iterations x systems cases). The first
 * violation cancels outstanding cases and rethrows on the calling
 * thread.
 */
FuzzSummary run_fuzz(const FuzzOptions &opt);

/** Parse "windserve"/"distserve"/"vllm" (any case, also the display
 *  names to_string emits). Throws std::invalid_argument otherwise. */
SystemKind parse_system_kind(const std::string &name);

/** Parse the value @p text of count flag @p flag: decimal digits only,
 *  no overflow, at least @p min. Throws std::invalid_argument naming
 *  the flag otherwise. */
std::uint64_t parse_count(const std::string &flag, const std::string &text,
                          std::uint64_t min = 0);

/** Parse the value @p text of real-valued flag @p flag: the whole
 *  token is one finite number in [@p min, @p max]. Throws
 *  std::invalid_argument naming the flag otherwise. */
double parse_real(const std::string &flag, const std::string &text,
                  double min, double max);

} // namespace windserve::harness
