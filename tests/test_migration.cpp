/**
 * @file
 * Unit tests for stall-free rescheduling (§3.3) and KV backups.
 */
#include <gtest/gtest.h>

#include <memory>

#include "hw/gpu_spec.hpp"
#include "transfer/migration.hpp"

namespace eng = windserve::engine;
namespace md = windserve::model;
namespace hw = windserve::hw;
namespace sim = windserve::sim;
namespace wl = windserve::workload;
namespace tr = windserve::transfer;
namespace kv = windserve::kvcache;

namespace {

struct MigFixture {
    sim::Simulator s;
    std::unique_ptr<eng::Instance> decode; // migration source
    std::unique_ptr<eng::Instance> prefill; // migration target
    std::unique_ptr<tr::KvTransferManager> xfer;
    kv::BackupRegistry registry;
    std::unique_ptr<tr::MigrationManager> mig;
    std::vector<wl::Request *> migrated;
    std::vector<wl::Request *> finished;

    explicit MigFixture(tr::MigrationConfig mcfg = {},
                        double link_bw = 23e9,
                        std::size_t target_kv = 0)
    {
        md::CostModel cost(md::ModelSpec::opt_13b(),
                           hw::GpuSpec::a800_80g(), {2, 1});
        eng::InstanceConfig dc;
        dc.role = eng::InstanceRole::Decode;
        dc.exec_noise_sigma = 0.0;
        decode = std::make_unique<eng::Instance>(
            s, dc, cost, sim::Rng(1),
            hw::Link{hw::LinkType::HostPCIe, 20e9, 1e-6});
        eng::InstanceConfig pc;
        pc.role = eng::InstanceRole::Prefill;
        pc.chunked_prefill = true;
        pc.exec_noise_sigma = 0.0;
        pc.kv_capacity_tokens_override = target_kv;
        prefill = std::make_unique<eng::Instance>(
            s, pc, cost, sim::Rng(2),
            hw::Link{hw::LinkType::HostPCIe, 20e9, 1e-6});
        xfer = std::make_unique<tr::KvTransferManager>(
            s, hw::Link{hw::LinkType::PCIeSwitch, link_bw, 1e-5},
            md::ModelSpec::opt_13b(), tr::KvTransferConfig{});
        mig = std::make_unique<tr::MigrationManager>(
            s, *xfer, *decode, *prefill, registry, mcfg);
        mig->on_migrated = [this](wl::Request *r) {
            migrated.push_back(r);
            prefill->enqueue_decode(r, /*kv_resident=*/true);
        };
        decode->callbacks.on_step = [this] { mig->on_source_step(); };
        decode->callbacks.on_finished = [this](wl::Request *r) {
            finished.push_back(r);
            mig->on_request_finished(r);
        };
        prefill->callbacks.on_finished = [this](wl::Request *r) {
            finished.push_back(r);
        };
    }
};

wl::Request
decode_req(wl::RequestId id, std::size_t prompt, std::size_t output)
{
    wl::Request r;
    r.id = id;
    r.prompt_tokens = prompt;
    r.output_tokens = output;
    r.generated = 1;
    r.first_token_time = 0.0;
    return r;
}

} // namespace

TEST(StallFreeMigration, DecodingContinuesDuringTransfer)
{
    MigFixture f({}, /*slow link*/ 2e9);
    auto r = decode_req(1, 1500, 400);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    std::size_t tokens_at_start = 0;
    f.s.schedule(0.5, [&] {
        tokens_at_start = r.generated;
        ASSERT_TRUE(f.mig->start(&r));
    });
    // 1500 tokens * 819 KB / 2 GB/s ~ 0.6 s of transfer. The request
    // must keep generating during most of that window.
    std::size_t tokens_mid_transfer = 0;
    f.s.schedule(0.9, [&] { tokens_mid_transfer = r.generated; });
    f.s.run_until(60.0);
    EXPECT_GT(tokens_mid_transfer, tokens_at_start + 5);
    EXPECT_EQ(f.migrated.size(), 1u);
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.migrations, 1u);
}

TEST(StallFreeMigration, BlockingModePausesImmediately)
{
    tr::MigrationConfig cfg;
    cfg.stall_free = false;
    MigFixture f(cfg, 2e9);
    auto r = decode_req(1, 1500, 400);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    std::size_t tokens_at_start = 0;
    f.s.schedule(0.5, [&] {
        tokens_at_start = r.generated;
        ASSERT_TRUE(f.mig->start(&r));
        EXPECT_FALSE(f.decode->is_decoding(&r));
    });
    std::size_t tokens_mid = 0;
    f.s.schedule(0.9, [&] { tokens_mid = r.generated; });
    f.s.run_until(60.0);
    // Paused immediately: no progress during the transfer (modulo the
    // iteration that was already in flight).
    EXPECT_LE(tokens_mid, tokens_at_start + 1);
    EXPECT_TRUE(r.finished());
}

TEST(StallFreeMigration, NoTokensLostAcrossMigration)
{
    MigFixture f({}, 5e9);
    auto r = decode_req(1, 800, 300);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.2, [&] { f.mig->start(&r); });
    f.s.run_until(120.0);
    ASSERT_TRUE(r.finished());
    EXPECT_EQ(r.generated, 300u);
    // KV fully accounted at exactly one place at the end: nowhere,
    // since the request finished and released.
    EXPECT_FALSE(f.decode->blocks().holds(1));
    EXPECT_FALSE(f.prefill->blocks().holds(1));
}

TEST(StallFreeMigration, SourceKvReleasedTargetHoldsContext)
{
    MigFixture f({}, 5e9);
    auto r = decode_req(1, 800, 2000);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.2, [&] { f.mig->start(&r); });
    // Sample shortly after migration completes.
    bool checked = false;
    f.mig->on_migrated = [&](wl::Request *req) {
        EXPECT_FALSE(f.decode->blocks().holds(1));
        EXPECT_TRUE(f.prefill->blocks().holds(1));
        EXPECT_GE(f.prefill->blocks().tokens_of(1),
                  req->context_length());
        checked = true;
        f.prefill->enqueue_decode(req, true);
    };
    f.s.run_until(5.0);
    EXPECT_TRUE(checked);
    EXPECT_TRUE(f.prefill->is_decoding(&r));
}

TEST(StallFreeMigration, BackupShrinksTransferredBytes)
{
    // With a prefix backup on record, only the delta ships.
    MigFixture plain({}, 5e9);
    MigFixture backed({}, 5e9);
    auto r1 = decode_req(1, 1000, 500);
    auto r2 = decode_req(1, 1000, 500);
    backed.registry.record(1, 900);
    backed.prefill->blocks().allocate(1, 900); // backup holds blocks
    plain.s.schedule(0.0,
                     [&] { plain.decode->enqueue_decode(&r1, false); });
    backed.s.schedule(0.0,
                      [&] { backed.decode->enqueue_decode(&r2, false); });
    plain.s.schedule(0.1, [&] { plain.mig->start(&r1); });
    backed.s.schedule(0.1, [&] { backed.mig->start(&r2); });
    plain.s.run_until(0.5);
    backed.s.run_until(0.5);
    EXPECT_LT(backed.xfer->reverse_channel().total_bytes(),
              0.5 * plain.xfer->reverse_channel().total_bytes());
}

TEST(StallFreeMigration, RequestFinishingMidTransferAborts)
{
    MigFixture f({}, 1e9); // very slow link
    auto r = decode_req(1, 1800, 10); // finishes quickly
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.05, [&] { f.mig->start(&r); });
    f.s.run_until(60.0);
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(f.mig->completed(), 0u);
    EXPECT_EQ(f.mig->aborted(), 1u);
    EXPECT_TRUE(f.migrated.empty());
    EXPECT_EQ(r.migrations, 0u);
}

TEST(StallFreeMigration, StartRefusedWhenTargetFull)
{
    MigFixture f({}, 23e9, /*target_kv=*/128);
    auto r = decode_req(1, 800, 100);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    bool started = true;
    f.s.schedule(0.1, [&] { started = f.mig->start(&r); });
    f.s.run_until(0.2);
    EXPECT_FALSE(started);
    EXPECT_EQ(r.state, wl::RequestState::Decoding);
}

TEST(StallFreeMigration, DoubleStartRefused)
{
    MigFixture f({}, 2e9);
    auto r = decode_req(1, 1000, 400);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.1, [&] {
        EXPECT_TRUE(f.mig->start(&r));
        EXPECT_FALSE(f.mig->start(&r));
        EXPECT_EQ(f.mig->active(), 1u);
    });
    f.s.run_until(0.2);
}

TEST(StallFreeMigration, MigratedRequestResumesAndFinishesAtTarget)
{
    MigFixture f({}, 10e9);
    auto r = decode_req(1, 600, 200);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.1, [&] { f.mig->start(&r); });
    f.s.run_until(120.0);
    ASSERT_TRUE(r.finished());
    ASSERT_EQ(f.finished.size(), 1u);
    // It finished on the PREFILL instance.
    EXPECT_GE(f.prefill->decode_iterations(), 1u);
}

TEST(StallFreeMigration, TargetCrashAbortsPausedAndDecodingMigrations)
{
    MigFixture f({}, 0.2e9); // slow link: both copies still in flight
    // a: a backup covers all but ~50 tokens, so it pauses at the first
    // source step; b ships its whole context and keeps decoding.
    auto a = decode_req(1, 1000, 300);
    auto b = decode_req(2, 1500, 300);
    f.registry.record(1, 950);
    f.prefill->blocks().allocate(1, 950);
    f.s.schedule(0.0, [&] {
        f.decode->enqueue_decode(&a, false);
        f.decode->enqueue_decode(&b, false);
    });
    f.s.schedule(0.1, [&] {
        ASSERT_TRUE(f.mig->start(&a));
        ASSERT_TRUE(f.mig->start(&b));
    });
    f.s.schedule(0.2, [&] {
        ASSERT_EQ(f.mig->active(), 2u);
        EXPECT_FALSE(f.decode->is_decoding(&a)); // paused
        EXPECT_TRUE(f.decode->is_decoding(&b));
        const std::size_t queued = f.decode->waiting_decode_requests();
        f.prefill->crash();
        f.mig->on_target_crash();
        EXPECT_EQ(f.mig->aborted(), 2u);
        EXPECT_EQ(f.mig->active(), 0u);
        // The paused request is handed back to the source.
        EXPECT_TRUE(f.decode->is_decoding(&a) ||
                    f.decode->waiting_decode_requests() == queued + 1);
    });
    f.s.run_until(120.0);
    // The in-flight copies drained into no active entry: no-ops.
    EXPECT_EQ(f.mig->completed(), 0u);
    EXPECT_EQ(f.mig->aborted(), 2u);
    EXPECT_TRUE(f.migrated.empty());
    // Both finish at the source with every token.
    ASSERT_TRUE(a.finished());
    ASSERT_TRUE(b.finished());
    EXPECT_EQ(a.generated, 300u);
    EXPECT_EQ(b.generated, 300u);
    EXPECT_EQ(a.migrations, 0u);
    EXPECT_EQ(b.migrations, 0u);
    EXPECT_EQ(f.finished.size(), 2u);
    EXPECT_EQ(f.prefill->decode_iterations(), 0u);
}

TEST(BackupManager, BacksUpLongRunningRequests)
{
    MigFixture f({}, 23e9);
    tr::BackupManager::Config bcfg;
    bcfg.source_occupancy_trigger = 0.0; // always eager
    bcfg.target_occupancy_limit = 1.0;
    bcfg.min_context_tokens = 100;
    tr::BackupManager backup(f.s, *f.xfer, *f.decode, *f.prefill,
                             f.registry, bcfg);
    auto r = decode_req(1, 800, 2000);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.2, [&] { backup.maybe_backup(); });
    f.s.run_until(1.0);
    EXPECT_EQ(backup.backups_taken(), 1u);
    EXPECT_TRUE(f.registry.has_backup(1));
    EXPECT_GE(f.registry.backed_up_tokens(1), 800u);
    EXPECT_TRUE(f.prefill->blocks().holds(1));
}

TEST(BackupManager, RespectsOccupancyGates)
{
    MigFixture f({}, 23e9);
    tr::BackupManager::Config bcfg;
    bcfg.source_occupancy_trigger = 0.999; // decode never that full here
    tr::BackupManager backup(f.s, *f.xfer, *f.decode, *f.prefill,
                             f.registry, bcfg);
    auto r = decode_req(1, 800, 2000);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.2, [&] { backup.maybe_backup(); });
    f.s.run_until(1.0);
    EXPECT_EQ(backup.backups_taken(), 0u);
}

TEST(BackupManager, SkipsShortContexts)
{
    MigFixture f({}, 23e9);
    tr::BackupManager::Config bcfg;
    bcfg.source_occupancy_trigger = 0.0;
    bcfg.min_context_tokens = 4000;
    tr::BackupManager backup(f.s, *f.xfer, *f.decode, *f.prefill,
                             f.registry, bcfg);
    auto r = decode_req(1, 800, 2000);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.2, [&] { backup.maybe_backup(); });
    f.s.run_until(1.0);
    EXPECT_EQ(backup.backups_taken(), 0u);
}

TEST(BackupManager, ReleasesBlocksWhenRequestFinishes)
{
    MigFixture f({}, 23e9);
    tr::BackupManager::Config bcfg;
    bcfg.source_occupancy_trigger = 0.0;
    bcfg.target_occupancy_limit = 1.0;
    bcfg.min_context_tokens = 100;
    auto backup = std::make_shared<tr::BackupManager>(
        f.s, *f.xfer, *f.decode, *f.prefill, f.registry, bcfg);
    f.decode->callbacks.on_finished = [&, backup](wl::Request *req) {
        f.mig->on_request_finished(req);
        backup->on_request_done(req);
    };
    auto r = decode_req(1, 800, 60);
    f.s.schedule(0.0, [&] { f.decode->enqueue_decode(&r, false); });
    f.s.schedule(0.1, [&, backup] { backup->maybe_backup(); });
    f.s.run_until(60.0);
    EXPECT_TRUE(r.finished());
    EXPECT_FALSE(f.registry.has_backup(1));
    EXPECT_FALSE(f.prefill->blocks().holds(1));
}
