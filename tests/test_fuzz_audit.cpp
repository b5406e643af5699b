/**
 * @file
 * Property-based fuzzing of all three serving systems under invariant
 * audit (see harness/fuzz.hpp). The campaign here is the CI-budget
 * version of examples/fuzz_runner: 70 randomized cases per system (210
 * total), every one replayable from the seed a failure prints.
 */
#include <gtest/gtest.h>

#include "harness/fuzz.hpp"
#include "harness/parallel.hpp"

namespace hs = windserve::harness;

// The headline property: no randomized workload/config drives any
// system into an invariant violation. A failure throws
// audit::InvariantViolation whose message carries the repro line
// (--repro-seed=S --repro-config=NAME) that examples/fuzz_runner
// replays directly.
TEST(FuzzAudit, RandomizedCampaignHoldsAllInvariants)
{
    hs::FuzzOptions opt;
    opt.iterations = 70; // x3 systems = 210 audited cases
    opt.base_seed = 1;
    opt.jobs = hs::default_jobs();
    hs::FuzzSummary sum = hs::run_fuzz(opt);
    EXPECT_EQ(sum.results.size(), 210u);
    EXPECT_EQ(sum.total_violations, 0u);
    EXPECT_GT(sum.total_events, 100000u); // the audit actually ran
    // Every case simulated a real workload.
    for (const auto &r : sum.results) {
        EXPECT_GE(r.num_requests, 40u) << r.system_name << " seed " << r.seed;
        EXPECT_GT(r.audit_events, 0u) << r.system_name << " seed " << r.seed;
        EXPECT_GT(r.generated_tokens, 0u)
            << r.system_name << " seed " << r.seed;
    }
}

// Replays are exact: the same seed yields bit-identical per-request
// outcomes (the checksum folds id, token counts, timestamps, state).
TEST(FuzzAudit, SameSeedSameChecksum)
{
    for (hs::SystemKind k :
         {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
          hs::SystemKind::Vllm}) {
        hs::FuzzResult a = hs::run_fuzz_case(77, k);
        hs::FuzzResult b = hs::run_fuzz_case(77, k);
        EXPECT_EQ(a.checksum, b.checksum) << a.system_name;
        EXPECT_EQ(a.generated_tokens, b.generated_tokens) << a.system_name;
        EXPECT_EQ(a.audit_events, b.audit_events) << a.system_name;
    }
}

// Campaign results do not depend on worker-thread count: slot-ordered
// results from a threaded run match a serial run exactly.
TEST(FuzzAudit, ThreadCountDoesNotChangeResults)
{
    hs::FuzzOptions opt;
    opt.iterations = 6;
    opt.base_seed = 500;
    opt.jobs = 1;
    hs::FuzzSummary serial = hs::run_fuzz(opt);
    opt.jobs = 4;
    hs::FuzzSummary threaded = hs::run_fuzz(opt);
    ASSERT_EQ(serial.results.size(), threaded.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].checksum, threaded.results[i].checksum);
        EXPECT_EQ(serial.results[i].seed, threaded.results[i].seed);
        EXPECT_EQ(serial.results[i].system_name,
                  threaded.results[i].system_name);
    }
    EXPECT_EQ(serial.total_events, threaded.total_events);
}

// Config derivation is a pure function of (seed, system) and actually
// explores the space (different seeds produce different workloads).
TEST(FuzzAudit, ConfigDerivationIsPureAndVaried)
{
    auto a = hs::make_fuzz_config(9, hs::SystemKind::WindServe);
    auto b = hs::make_fuzz_config(9, hs::SystemKind::WindServe);
    EXPECT_EQ(a.num_requests, b.num_requests);
    EXPECT_EQ(a.per_gpu_rate, b.per_gpu_rate);
    EXPECT_EQ(a.kv_capacity_tokens_override, b.kv_capacity_tokens_override);
    EXPECT_TRUE(a.audit);

    bool varied = false;
    auto first = hs::make_fuzz_config(1, hs::SystemKind::WindServe);
    for (std::uint64_t s = 2; s <= 12 && !varied; ++s) {
        auto c = hs::make_fuzz_config(s, hs::SystemKind::WindServe);
        varied = c.num_requests != first.num_requests ||
                 c.per_gpu_rate != first.per_gpu_rate;
    }
    EXPECT_TRUE(varied);
}

// Multi-node campaigns: the same randomized configs replayed on 2- and
// 4-node clusters (sharded WindServe pods, replicated baselines) hold
// every invariant, fault-free and under chaos. The chaos axis adds
// node crashes and NIC outages on top of the single-node fault classes.
TEST(FuzzAudit, MultiNodeCampaignHoldsAllInvariants)
{
    for (std::size_t nodes : {2u, 4u}) {
        hs::FuzzOptions opt;
        opt.iterations = 12; // x3 systems x2 cluster sizes
        opt.base_seed = 1;
        opt.jobs = hs::default_jobs();
        opt.nodes = nodes;
        hs::FuzzSummary sum = hs::run_fuzz(opt);
        EXPECT_EQ(sum.results.size(), 36u) << nodes;
        EXPECT_EQ(sum.total_violations, 0u) << nodes;
        EXPECT_GT(sum.total_events, 100000u) << nodes;
        for (const auto &r : sum.results)
            EXPECT_GT(r.generated_tokens, 0u)
                << r.system_name << " seed " << r.seed << " " << nodes
                << " nodes";
    }
}

TEST(FuzzAudit, MultiNodeChaosCampaignHoldsAllInvariants)
{
    hs::FuzzOptions opt;
    opt.iterations = 12;
    opt.base_seed = 1;
    opt.jobs = hs::default_jobs();
    opt.nodes = 2;
    opt.chaos = true;
    hs::FuzzSummary sum = hs::run_fuzz(opt);
    EXPECT_EQ(sum.results.size(), 36u);
    EXPECT_EQ(sum.total_violations, 0u);
    EXPECT_GT(sum.total_events, 100000u);
}

// The node axis is orthogonal: seed replay on a cluster is exact, and
// nodes=1 is byte-identical to the historical single-node case (the
// cluster draws come after every single-node draw).
TEST(FuzzAudit, MultiNodeSeedReplayIsExact)
{
    for (hs::SystemKind k :
         {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
          hs::SystemKind::Vllm}) {
        hs::FuzzResult a =
            hs::run_fuzz_case(hs::make_fuzz_config(77, k, true, 2));
        hs::FuzzResult b =
            hs::run_fuzz_case(hs::make_fuzz_config(77, k, true, 2));
        EXPECT_EQ(a.checksum, b.checksum) << a.system_name;
        EXPECT_EQ(a.audit_events, b.audit_events) << a.system_name;
    }
}

TEST(FuzzAudit, NodeAxisDoesNotPerturbSingleNodeConfigs)
{
    for (bool chaos : {false, true}) {
        auto legacy = hs::make_fuzz_config(9, hs::SystemKind::WindServe,
                                           chaos);
        auto one =
            hs::make_fuzz_config(9, hs::SystemKind::WindServe, chaos, 1);
        EXPECT_EQ(legacy.num_requests, one.num_requests);
        EXPECT_EQ(legacy.per_gpu_rate, one.per_gpu_rate);
        EXPECT_EQ(legacy.kv_capacity_tokens_override,
                  one.kv_capacity_tokens_override);
        EXPECT_EQ(legacy.num_nodes, one.num_nodes);
        if (chaos) {
            ASSERT_TRUE(legacy.faults && one.faults);
            EXPECT_EQ(legacy.faults->crash_mtbf, one.faults->crash_mtbf);
            EXPECT_EQ(legacy.faults->node_mtbf, one.faults->node_mtbf);
            EXPECT_EQ(one.faults->node_mtbf, 0.0); // single node: none
        }
        // The multi-node variant keeps every base draw too.
        auto multi =
            hs::make_fuzz_config(9, hs::SystemKind::WindServe, chaos, 2);
        EXPECT_EQ(legacy.num_requests, multi.num_requests);
        EXPECT_EQ(legacy.per_gpu_rate, multi.per_gpu_rate);
        if (chaos) {
            EXPECT_EQ(legacy.faults->crash_mtbf, multi.faults->crash_mtbf);
        }
        EXPECT_EQ(multi.num_nodes, 2u);
    }
}

// Inter-node link outages: a 2-node chaos case with the link class
// forced on runs clean and its NIC outages are replayable.
TEST(FuzzAudit, InterNodeLinkOutagesHoldInvariants)
{
    auto cfg = hs::make_fuzz_config(13, hs::SystemKind::WindServe, true, 2);
    ASSERT_TRUE(cfg.faults);
    cfg.faults->link_mtbf = 15.0; // force frequent outages on all links,
    cfg.faults->mean_outage = 3.0; // NICs included (generic link class)
    cfg.faults->degrade_factor = 0.0;
    hs::FuzzResult a = hs::run_fuzz_case(cfg);
    hs::FuzzResult b = hs::run_fuzz_case(cfg);
    EXPECT_EQ(a.audit_violations, 0u);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_GT(a.audit_events, 0u);
}

TEST(FuzzAudit, ParseSystemKindRoundTrips)
{
    using K = hs::SystemKind;
    for (K k : {K::WindServe, K::DistServe, K::Vllm, K::WindServeNoSplit,
                K::WindServeNoResche, K::WindServeNoDispatch})
        EXPECT_EQ(hs::parse_system_kind(hs::to_string(k)), k);
    EXPECT_EQ(hs::parse_system_kind("vllm"), K::Vllm);
    EXPECT_THROW(hs::parse_system_kind("sglang"), std::invalid_argument);
}

TEST(FuzzAudit, ParseCountAcceptsPlainDecimal)
{
    EXPECT_EQ(hs::parse_count("--iters", "0"), 0u);
    EXPECT_EQ(hs::parse_count("--nodes", "8", 1), 8u);
    EXPECT_EQ(hs::parse_count("--seed", "18446744073709551615"),
              18446744073709551615ull);
}

TEST(FuzzAudit, ParseCountRejectsSignsGarbageOverflowAndSmallValues)
{
    for (const char *bad : {"-1", "+3", "", " 4", "4 ", "12x", "0x10", "1.5",
                            "18446744073709551616"})
        EXPECT_THROW(hs::parse_count("--nodes", bad), std::invalid_argument)
            << "'" << bad << "'";
    EXPECT_THROW(hs::parse_count("--jobs", "0", 1), std::invalid_argument);
    try {
        hs::parse_count("--requests", "-5", 1);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("--requests"),
                  std::string::npos)
            << e.what();
    }
}
