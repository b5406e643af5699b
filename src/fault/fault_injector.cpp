#include "fault/fault_injector.hpp"

#include "audit/sim_auditor.hpp"
#include "engine/instance.hpp"
#include "hw/transfer_engine.hpp"
#include "obs/trace_recorder.hpp"
#include "simcore/simulator.hpp"
#include "workload/request.hpp"

#include <algorithm>
#include <cmath>

namespace windserve::fault {

FaultInjector::FaultInjector(sim::Simulator &sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan))
{}

void
FaultInjector::add_instance(engine::Instance *inst)
{
    instances_.push_back(inst);
}

void
FaultInjector::add_channel(hw::Channel *chan)
{
    links_.push_back(LinkTarget{
        chan->name(), [chan](double f) { chan->set_rate_factor(f); }});
}

void
FaultInjector::add_shared_channel(hw::SharedChannel *chan)
{
    links_.push_back(LinkTarget{
        chan->name(), [chan](double f) { chan->set_rate_factor(f); }});
}

void
FaultInjector::add_node_group(std::vector<engine::Instance *> insts)
{
    node_groups_.push_back(std::move(insts));
}

void
FaultInjector::set_redispatch(std::function<void(workload::Request *)> fn)
{
    redispatch_ = std::move(fn);
}

void
FaultInjector::set_crash_hook(
    std::function<void(engine::Instance &, std::vector<workload::Request *> &)>
        fn)
{
    crash_hook_ = std::move(fn);
}

void
FaultInjector::set_ctrl_fault(std::function<void(const FaultEvent &)> fn)
{
    ctrl_fault_ = std::move(fn);
}

void
FaultInjector::arm()
{
    sim::SourceScope src(sim_, "fault");
    for (const auto &ev : plan_.events())
        sim_.schedule_at(ev.time, [this, ev] { fire(ev); });
}

void
FaultInjector::fire(const FaultEvent &ev)
{
    switch (ev.kind) {
    case FaultKind::InstanceCrash:
        do_crash(ev);
        break;
    case FaultKind::LinkDown:
    case FaultKind::LinkUp:
        do_link(ev);
        break;
    case FaultKind::StragglerBegin:
    case FaultKind::StragglerEnd:
        do_straggler(ev);
        break;
    case FaultKind::NodeCrash:
        do_node_crash(ev);
        break;
    case FaultKind::LeaderCrash:
    case FaultKind::ControlPartition:
        // control-plane faults belong to the owner's ControlPlane;
        // absorbed when no replicated control plane is wired
        if (ctrl_fault_)
            ctrl_fault_(ev);
        break;
    }
}

void
FaultInjector::do_crash(const FaultEvent &ev)
{
    if (instances_.empty())
        return;
    engine::Instance *inst = instances_[ev.target % instances_.size()];
    crash_instances({inst}, ev.param);
}

void
FaultInjector::do_node_crash(const FaultEvent &ev)
{
    if (node_groups_.empty())
        return;
    const auto &group = node_groups_[ev.target % node_groups_.size()];
    bool any_up = false;
    for (engine::Instance *inst : group)
        if (!inst->is_down())
            any_up = true;
    if (!any_up)
        return; // the whole node is already dark
    ++node_crashes_;
    crash_instances(group, ev.param);
}

void
FaultInjector::crash_instances(const std::vector<engine::Instance *> &insts,
                               double repair)
{
    double now = sim_.now();
    std::vector<workload::Request *> victims;
    std::vector<engine::Instance *> crashed;
    for (engine::Instance *inst : insts) {
        if (inst->is_down())
            continue; // crash of an already-dead instance is absorbed
        ++crashes_;
        crashed.push_back(inst);
        down_until_[inst] = now + repair;

        if (trace_) {
            trace_->span(obs::Category::Fault, "fault", inst->name(), "down",
                         now, repair, {obs::num_arg("repair_s", repair)});
        }

        for (workload::Request *r : inst->crash())
            victims.push_back(r);
        if (audit_) {
            audit_->on_instance_crash(inst->name(),
                                      inst->blocks().used_blocks(),
                                      inst->swap_pool().used_bytes());
        }
        // The system sees requests the instance cannot (mid-transfer,
        // mid-migration) and reconciles cross-instance state (backup
        // copies) before any victim is routed anywhere.
        if (crash_hook_)
            crash_hook_(*inst, victims);
    }
    if (crashed.empty())
        return;

    std::sort(victims.begin(), victims.end(),
              [](const workload::Request *a, const workload::Request *b) {
                  return a->id < b->id;
              });
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());

    for (workload::Request *r : victims) {
        // Invalidate in-flight completions first: a stale transfer
        // callback may fire before the backoff-delayed redispatch.
        ++r->incarnation;
        recovering_[r->id].crash_time = now; // attempts accumulate
    }
    // Victims re-enter scheduling immediately (after backoff): waiting
    // out the repair is NOT the injector's call. A system that can
    // route around the dead instance (WindServe: both instances serve
    // both phases, backups restore at the peer) recovers right away; a
    // system whose only viable target is the crashed instance re-queues
    // there and naturally waits, because a down instance accepts work
    // but does not pump until repair().
    for (workload::Request *r : victims)
        redispatch_request(r, now);

    sim::SourceScope src(sim_, "fault");
    for (engine::Instance *inst : crashed) {
        sim_.schedule(repair, [this, inst] {
            down_until_.erase(inst);
            inst->repair();
            if (trace_) {
                trace_->instant(sim_.now(), obs::Category::Fault, "fault",
                                inst->name(), "repaired");
            }
        });
    }
}

void
FaultInjector::do_link(const FaultEvent &ev)
{
    if (links_.empty())
        return;
    LinkTarget &link = links_[ev.target % links_.size()];
    if (ev.kind == FaultKind::LinkDown) {
        ++link_outages_;
        link.set_rate(ev.param);
        if (trace_) {
            trace_->instant(sim_.now(), obs::Category::Fault, "fault",
                            link.name, "link_down",
                            {obs::num_arg("rate_factor", ev.param)});
        }
    } else {
        link.set_rate(1.0);
        if (trace_) {
            trace_->instant(sim_.now(), obs::Category::Fault, "fault",
                            link.name, "link_up");
        }
    }
}

void
FaultInjector::do_straggler(const FaultEvent &ev)
{
    if (instances_.empty())
        return;
    engine::Instance *inst = instances_[ev.target % instances_.size()];
    if (ev.kind == FaultKind::StragglerBegin) {
        ++straggler_windows_;
        inst->set_slowdown(ev.param);
        if (trace_) {
            trace_->instant(sim_.now(), obs::Category::Fault, "fault",
                            inst->name(), "straggler_begin",
                            {obs::num_arg("slowdown", ev.param)});
        }
    } else {
        inst->set_slowdown(1.0);
        if (trace_) {
            trace_->instant(sim_.now(), obs::Category::Fault, "fault",
                            inst->name(), "straggler_end");
        }
    }
}

void
FaultInjector::redispatch_request(workload::Request *r, double not_before)
{
    double now = sim_.now();
    Recovering &rec = recovering_[r->id];
    if (rec.crash_time < 0.0)
        rec.crash_time = now;
    ++rec.attempts;
    if (rec.attempts > policy().max_attempts) {
        abort_request(r);
        return;
    }
    ++redispatches_;
    if (rec.attempts > 1)
        ++retries_;
    // Exponential backoff: 20 ms, doubling per additional attempt.
    double delay =
        0.02 * std::pow(2.0, static_cast<double>(rec.attempts - 1));
    double fire_at = std::max(now + delay, not_before + delay);
    sim::SourceScope src(sim_, "fault");
    sim_.schedule_at(fire_at, [this, r] {
        // Aborted (or already recovered) while the backoff ran.
        if (recovering_.find(r->id) == recovering_.end())
            return;
        if (redispatch_)
            redispatch_(r);
    });
}

void
FaultInjector::abort_request(workload::Request *r)
{
    ++aborts_;
    recovering_.erase(r->id);
    audit::transition(audit_, *r, workload::RequestState::Aborted);
    if (trace_) {
        trace_->instant(sim_.now(), obs::Category::Fault, "fault",
                        "recovery", "abort",
                        {obs::num_arg("req", static_cast<std::uint64_t>(r->id))});
    }
}

void
FaultInjector::note_decode_ready(workload::Request *r)
{
    auto it = recovering_.find(r->id);
    if (it == recovering_.end())
        return;
    double latency = sim_.now() - it->second.crash_time;
    recovery_latency_.add(latency);
    ++recoveries_;
    recovering_.erase(it);
    if (trace_) {
        trace_->instant(sim_.now(), obs::Category::Fault, "fault",
                        "recovery", "recovered",
                        {obs::num_arg("req", static_cast<std::uint64_t>(r->id)),
                         obs::num_arg("latency_s", latency)});
    }
}

double
FaultInjector::up_time(const engine::Instance &inst) const
{
    auto it = down_until_.find(const_cast<engine::Instance *>(&inst));
    if (it == down_until_.end())
        return sim_.now();
    return it->second;
}

} // namespace windserve::fault
