#include "transfer/kv_transfer.hpp"

#include <memory>
#include <utility>

#include "audit/sim_auditor.hpp"
#include "fault/fault_injector.hpp"
#include "obs/telemetry.hpp"

namespace windserve::transfer {

namespace {

hw::Link
staged_link(hw::Link link, double factor)
{
    link.bandwidth *= factor;
    return link;
}

} // namespace

KvTransferManager::KvTransferManager(sim::Simulator &sim, hw::Link link,
                                     const model::ModelSpec &model,
                                     KvTransferConfig cfg)
    : sim_(sim), cfg_(cfg), kv_bytes_per_token_(model.kv_bytes_per_token()),
      p2d_(sim, link, cfg.name_prefix + "kv/p2d"),
      d2p_(sim, link, cfg.name_prefix + "kv/d2p"),
      staged_(sim, staged_link(link, cfg.staged_bandwidth_factor),
              cfg.name_prefix + "kv/staged")
{}

double
KvTransferManager::bytes_for_tokens(double tokens) const
{
    return tokens * kv_bytes_per_token_;
}

void
KvTransferManager::attach(const engine::Attachments &at)
{
    audit_ = at.audit;
    faults_ = at.faults;
    p2d_.attach(at, "interconnect", cfg_.name_prefix + "kv-p2d");
    d2p_.attach(at, "interconnect", cfg_.name_prefix + "kv-d2p");
    staged_.attach(at, "interconnect", cfg_.name_prefix + "kv-staged");
}

void
KvTransferManager::transfer_prefill_kv(workload::Request *r,
                                       std::function<void()> done)
{
    double bytes = bytes_for_tokens(static_cast<double>(r->prompt_tokens));
    if (cfg_.policy == TransferPolicy::Overlapped)
        bytes *= cfg_.overlap_tail_fraction;
    audit::transition(audit_, *r, workload::RequestState::Transferring);

    double timeout =
        faults_ ? faults_->policy().transfer_timeout : 0.0;
    if (timeout <= 0.0) {
        p2d_.submit(bytes, [this, r, done = std::move(done)] {
            r->transfer_done_time = sim_.now();
            done();
        });
        return;
    }
    // Watchdog race: whichever of {direct completion, timeout} fires
    // first claims the transfer; the loser sees the flag and no-ops.
    // The staged path is a GPU->host->GPU bounce, immune to direct-link
    // outages (it is never registered as an outage target), so exactly
    // one completion reaches the caller.
    auto settled = std::make_shared<bool>(false);
    auto finish = std::make_shared<std::function<void()>>(std::move(done));
    p2d_.submit(bytes, [this, r, settled, finish] {
        if (*settled)
            return; // timed out; the staged copy owns this request now
        *settled = true;
        r->transfer_done_time = sim_.now();
        (*finish)();
    });
    sim::SourceScope src(sim_, "transfer/watchdog");
    sim_.schedule(timeout, [this, r, bytes, settled, finish] {
        if (*settled)
            return; // direct copy landed in time
        *settled = true;
        faults_->count_transfer_timeout();
        staged_.submit(bytes, [this, r, finish] {
            r->transfer_done_time = sim_.now();
            (*finish)();
        });
    });
}

void
InstancePair::hand_off(workload::Request *r)
{
    if (!xfer) {
        prefill->enqueue_decode(r, /*kv_resident=*/true);
        on_landed(r);
        return;
    }
    transferring[r->id] = r;
    xfer->transfer_prefill_kv(r, [this, r, inc = r->incarnation] {
        if (r->incarnation != inc)
            return; // the prefill crashed mid-copy; r was re-dispatched
        transferring.erase(r->id);
        prefill->release_kv(r);
        decode->enqueue_decode(r, /*kv_resident=*/false);
        on_landed(r);
    });
}

void
InstancePair::sweep(std::vector<workload::Request *> &victims)
{
    for (auto &[id, r] : transferring)
        victims.push_back(r);
    transferring.clear();
}

void
InstancePair::attach(const engine::Attachments &at)
{
    engine::Instance *insts[] = {prefill.get(), decode.get()};
    for (engine::Instance *inst : insts)
        if (inst)
            inst->attach(at);
    if (xfer)
        xfer->attach(at);
    if (at.telemetry) {
        obs::MetricRegistry &reg = at.telemetry->registry();
        for (engine::Instance *inst : insts)
            if (inst)
                inst->register_metrics(reg);
        if (xfer) {
            xfer->forward_channel().register_metrics(reg);
            xfer->reverse_channel().register_metrics(reg);
            xfer->staged_channel().register_metrics(reg);
        }
    }
    if (at.faults) {
        for (engine::Instance *inst : insts)
            if (inst)
                at.faults->add_instance(inst);
        if (xfer) {
            at.faults->add_channel(&xfer->forward_channel());
            at.faults->add_channel(&xfer->reverse_channel());
        }
    }
}

} // namespace windserve::transfer
