/**
 * @file
 * Unit tests for the Coordinator: Algorithm 1 (Dynamic Prefill
 * Dispatch) and the Dynamic Rescheduling trigger.
 */
#include <gtest/gtest.h>

#include <memory>

#include "core/coordinator.hpp"
#include "hw/gpu_spec.hpp"

namespace core = windserve::core;
namespace eng = windserve::engine;
namespace md = windserve::model;
namespace hw = windserve::hw;
namespace sim = windserve::sim;
namespace wl = windserve::workload;

namespace {

struct CoordFixture {
    sim::Simulator s;
    core::Profiler prefill_prof;
    std::unique_ptr<eng::Instance> prefill;
    std::unique_ptr<eng::Instance> decode;
    std::unique_ptr<core::Coordinator> coord;

    explicit CoordFixture(core::CoordinatorConfig cfg = {},
                          std::size_t decode_kv = 0)
    {
        md::CostModel pcost(md::ModelSpec::opt_13b(),
                            hw::GpuSpec::a800_80g(), {2, 1});
        md::CostModel dcost = pcost;
        eng::InstanceConfig pc;
        pc.role = eng::InstanceRole::Prefill;
        pc.exec_noise_sigma = 0.0;
        prefill = std::make_unique<eng::Instance>(
            s, pc, pcost, sim::Rng(1),
            hw::Link{hw::LinkType::HostPCIe, 20e9, 1e-6});
        eng::InstanceConfig dc;
        dc.role = eng::InstanceRole::Decode;
        dc.stream_based_disaggregation = true;
        dc.exec_noise_sigma = 0.0;
        dc.kv_capacity_tokens_override = decode_kv;
        decode = std::make_unique<eng::Instance>(
            s, dc, dcost, sim::Rng(2),
            hw::Link{hw::LinkType::HostPCIe, 20e9, 1e-6});
        sim::Rng rng(3);
        prefill_prof.calibrate_offline(pcost, rng, 0.0);
        coord = std::make_unique<core::Coordinator>(cfg, prefill_prof);
        coord->compute_budget(dcost, 0.25, 0.10);
    }

    wl::Request make_req(wl::RequestId id, std::size_t prompt)
    {
        wl::Request r;
        r.id = id;
        r.prompt_tokens = prompt;
        r.output_tokens = 20;
        return r;
    }
};

hw::Link
pd_link()
{
    return {hw::LinkType::PCIeSwitch, 23e9, 1e-5};
}

} // namespace

TEST(CoordinatorBudget, DerivedFromSlos)
{
    CoordFixture f;
    // OPT-13B decode instance, TTFT SLO 0.25 s: budget should land in
    // the hundreds-to-few-thousands of tokens.
    EXPECT_GT(f.coord->budget_tokens(), 200u);
    EXPECT_LT(f.coord->budget_tokens(), 8000u);
}

TEST(CoordinatorBudget, ExplicitBudgetRespected)
{
    core::CoordinatorConfig cfg;
    cfg.budget_tokens = 1234;
    CoordFixture f(cfg);
    EXPECT_EQ(f.coord->budget_tokens(), 1234u);
}

TEST(CoordinatorBudget, ImpossibleTpotDisablesDispatch)
{
    CoordFixture f;
    md::CostModel dcost(md::ModelSpec::opt_13b(),
                        hw::GpuSpec::a800_80g(), {2, 1});
    core::CoordinatorConfig cfg;
    core::Coordinator c(cfg, f.prefill_prof);
    // TPOT SLO of 1 us cannot be met even undisturbed.
    c.compute_budget(dcost, 0.25, 1e-6);
    EXPECT_EQ(c.budget_tokens(), 0u);
    auto r = f.make_req(1, 100);
    EXPECT_EQ(c.decide_dispatch(r, *f.prefill, *f.decode),
              core::DispatchDecision::PrefillInstance);
}

TEST(Algorithm1, IdlePrefillKeepsRequest)
{
    CoordFixture f;
    auto r = f.make_req(1, 500);
    // Empty prefill queue: predicted TTFT ~ prefill_time(500) << thrd.
    EXPECT_EQ(f.coord->decide_dispatch(r, *f.prefill, *f.decode),
              core::DispatchDecision::PrefillInstance);
    EXPECT_EQ(f.coord->dispatches(), 0u);
}

TEST(Algorithm1, OverloadedPrefillDispatches)
{
    core::CoordinatorConfig cfg;
    cfg.thrd = 0.2;
    CoordFixture f(cfg);
    // Pile up queued prefill work well beyond thrd. No pump runs (no
    // events fired), so the queue stays full for the check.
    std::vector<wl::Request> queued;
    for (int i = 0; i < 12; ++i)
        queued.push_back(f.make_req(100 + i, 2000));
    for (auto &q : queued)
        f.prefill->enqueue_prefill(&q);
    auto r = f.make_req(1, 400);
    EXPECT_EQ(f.coord->decide_dispatch(r, *f.prefill, *f.decode),
              core::DispatchDecision::DecodeInstance);
    EXPECT_EQ(f.coord->dispatches(), 1u);
}

TEST(Algorithm1, RequestBiggerThanSlotsStays)
{
    core::CoordinatorConfig cfg;
    cfg.thrd = 0.2;
    cfg.budget_tokens = 300; // explicit small budget
    CoordFixture f(cfg);
    std::vector<wl::Request> queued;
    for (int i = 0; i < 12; ++i)
        queued.push_back(f.make_req(100 + i, 2000));
    for (auto &q : queued)
        f.prefill->enqueue_prefill(&q);
    auto r = f.make_req(1, 400); // 400 > 300 budget
    EXPECT_EQ(f.coord->decide_dispatch(r, *f.prefill, *f.decode),
              core::DispatchDecision::PrefillInstance);
}

TEST(Algorithm1, SlotsShrinkWithPendingAssists)
{
    CoordFixture f;
    std::size_t before = f.coord->available_slots(*f.decode);
    EXPECT_GT(before, 0u);
    // Queue an assist prefill; pending tokens reduce the budget.
    auto r = f.make_req(50, 200);
    f.decode->enqueue_assist_prefill(&r);
    std::size_t after = f.coord->available_slots(*f.decode);
    EXPECT_LE(after + 200, before + 1);
}

// "if the KV blocks in the decoding instance are inadequate, the
// available slot is set to 0" (§3.2.2).
TEST(Algorithm1, NoSlotsWhenDecodeKvLow)
{
    core::CoordinatorConfig cfg;
    cfg.dispatch_kv_reserve_tokens = 2048;
    CoordFixture f(cfg, /*decode_kv=*/2048);
    EXPECT_EQ(f.coord->available_slots(*f.decode), 0u);
}

TEST(Algorithm1, DispatchDisabledByAblation)
{
    core::CoordinatorConfig cfg;
    cfg.enable_dispatch = false;
    cfg.thrd = 0.0; // would always dispatch otherwise
    CoordFixture f(cfg);
    std::vector<wl::Request> queued;
    for (int i = 0; i < 12; ++i)
        queued.push_back(f.make_req(100 + i, 2000));
    for (auto &q : queued)
        f.prefill->enqueue_prefill(&q);
    auto r = f.make_req(1, 400);
    EXPECT_EQ(f.coord->decide_dispatch(r, *f.prefill, *f.decode),
              core::DispatchDecision::PrefillInstance);
}

TEST(Algorithm1, LowerThresholdDispatchesMore)
{
    // Fig. 5's premise: thrd controls dispatch aggressiveness.
    auto count_dispatches = [](double thrd) {
        core::CoordinatorConfig cfg;
        cfg.thrd = thrd;
        CoordFixture f(cfg);
        std::vector<wl::Request> queued;
        for (int i = 0; i < 6; ++i)
            queued.push_back(f.make_req(100 + i, 1500));
        for (auto &q : queued)
            f.prefill->enqueue_prefill(&q);
        std::uint64_t n = 0;
        for (int i = 0; i < 5; ++i) {
            wl::Request r;
            r.id = static_cast<wl::RequestId>(i);
            r.prompt_tokens = 300;
            r.output_tokens = 10;
            if (f.coord->decide_dispatch(r, *f.prefill, *f.decode) ==
                core::DispatchDecision::DecodeInstance)
                ++n;
        }
        return n;
    };
    EXPECT_GE(count_dispatches(0.05), count_dispatches(10.0));
    EXPECT_EQ(count_dispatches(1e9), 0u);
}

TEST(Rescheduling, TriggersOnHighOccupancyAndPicksLongest)
{
    core::CoordinatorConfig cfg;
    cfg.resched_occupancy_trigger = 0.5;
    CoordFixture f(cfg, /*decode_kv=*/1024);
    auto a = f.make_req(1, 400);
    a.output_tokens = 500;
    a.generated = 1;
    auto b = f.make_req(2, 200);
    b.output_tokens = 500;
    b.generated = 1;
    f.s.schedule(0.0, [&] {
        f.decode->enqueue_decode(&a, false);
        f.decode->enqueue_decode(&b, false);
    });
    f.s.run_until(0.2);

    windserve::transfer::KvTransferManager xfer(
        f.s, pd_link(), md::ModelSpec::opt_13b(), {});
    windserve::kvcache::BackupRegistry reg;
    windserve::transfer::MigrationManager mig(f.s, xfer, *f.decode,
                                              *f.prefill, reg);
    EXPECT_TRUE(f.coord->maybe_reschedule(*f.decode, *f.prefill, mig));
    EXPECT_EQ(f.coord->reschedules(), 1u);
    EXPECT_TRUE(mig.is_migrating(&a)); // longest context chosen
    EXPECT_FALSE(mig.is_migrating(&b));
}

TEST(Rescheduling, QuietBelowTrigger)
{
    core::CoordinatorConfig cfg;
    cfg.resched_occupancy_trigger = 0.99;
    CoordFixture f(cfg, /*decode_kv=*/65536);
    windserve::transfer::KvTransferManager xfer(
        f.s, pd_link(), md::ModelSpec::opt_13b(), {});
    windserve::kvcache::BackupRegistry reg;
    windserve::transfer::MigrationManager mig(f.s, xfer, *f.decode,
                                              *f.prefill, reg);
    EXPECT_FALSE(f.coord->maybe_reschedule(*f.decode, *f.prefill, mig));
}

TEST(Rescheduling, DisabledByAblation)
{
    core::CoordinatorConfig cfg;
    cfg.enable_rescheduling = false;
    cfg.resched_occupancy_trigger = 0.0;
    CoordFixture f(cfg);
    windserve::transfer::KvTransferManager xfer(
        f.s, pd_link(), md::ModelSpec::opt_13b(), {});
    windserve::kvcache::BackupRegistry reg;
    windserve::transfer::MigrationManager mig(f.s, xfer, *f.decode,
                                              *f.prefill, reg);
    EXPECT_FALSE(f.coord->maybe_reschedule(*f.decode, *f.prefill, mig));
}

TEST(Rescheduling, RespectsConcurrencyCap)
{
    core::CoordinatorConfig cfg;
    cfg.resched_occupancy_trigger = 0.0;
    cfg.max_concurrent_migrations = 0;
    CoordFixture f(cfg);
    windserve::transfer::KvTransferManager xfer(
        f.s, pd_link(), md::ModelSpec::opt_13b(), {});
    windserve::kvcache::BackupRegistry reg;
    windserve::transfer::MigrationManager mig(f.s, xfer, *f.decode,
                                              *f.prefill, reg);
    EXPECT_FALSE(f.coord->maybe_reschedule(*f.decode, *f.prefill, mig));
}
