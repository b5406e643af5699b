/**
 * @file
 * Deterministic, seed-driven fault schedules for chaos experiments.
 *
 * A FaultPlan is generated up front — before the simulation starts —
 * as a sorted list of fault events: instance crashes with repair
 * times, link outages (hard or degraded), and straggler slowdown
 * windows. Because the plan is a pure function of its FaultConfig, a
 * faulty run stays a pure function of (config, workload, seed): the
 * same seed replays the exact crash sequence, which is what makes
 * chaos results debuggable and the fuzzer's repro lines meaningful.
 *
 * Event targets are raw draws; the FaultInjector maps them onto the
 * registered instances/channels with a modulo, so one plan applies to
 * any deployment shape.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace windserve::fault {

/** Kinds of scheduled fault events. */
enum class FaultKind {
    InstanceCrash,  ///< GPU instance dies; param = repair time (s)
    LinkDown,       ///< link outage begins; param = bandwidth factor
    LinkUp,         ///< link outage ends (restore full bandwidth)
    StragglerBegin, ///< instance slows down; param = slowdown factor
    StragglerEnd,   ///< slowdown window ends
    NodeCrash,      ///< whole node dies (every registered instance on
                    ///< it); param = repair time (s)
    LeaderCrash,    ///< control-plane leader replica dies;
                    ///< param = repair time (s)
    ControlPartition, ///< a control replica is cut off from the
                      ///< fabric; param = partition duration (s)
};

const char *to_string(FaultKind k);

/** One scheduled fault. */
struct FaultEvent {
    double time = 0.0;     ///< absolute simulated time
    FaultKind kind = FaultKind::InstanceCrash;
    std::size_t target = 0; ///< raw draw; injector applies modulo
    double param = 0.0;     ///< kind-specific (see FaultKind)
};

/** Bounded retry-with-backoff recovery policy (the first re-dispatch
 *  waits 20 ms, doubling per additional attempt). */
struct RecoveryPolicy {
    /** Re-dispatch attempts per request before it is aborted. The
     *  count is cumulative across repeated crashes of one request. */
    std::size_t max_attempts = 6;
    /** Prefill-KV transfer watchdog (seconds); a copy that has not
     *  landed by then is rerouted over the host-staged path. 0
     *  disables the watchdog. */
    double transfer_timeout = 1.0;
};

/** Everything that shapes one fault schedule. */
struct FaultConfig {
    /** Schedule horizon (seconds); 0 lets the harness substitute the
     *  run horizon. */
    double horizon = 0.0;
    /** Grace period before the first fault may fire. */
    double warmup = 30.0;
    std::uint64_t seed = 1;

    /** Mean time between instance crashes (s); 0 disables crashes. */
    double crash_mtbf = 600.0;
    /** Mean instance repair time (s). */
    double mean_repair = 10.0;

    /** Mean time between link outages (s); 0 disables outages. */
    double link_mtbf = 0.0;
    /** Mean outage duration (s). */
    double mean_outage = 2.0;
    /** Bandwidth factor during an outage: 0 = hard outage (transfers
     *  stall), (0,1) = degraded link. */
    double degrade_factor = 0.0;

    /** Mean time between straggler windows (s); 0 disables them. */
    double straggler_mtbf = 0.0;
    /** Mean straggler window duration (s). */
    double mean_straggler = 10.0;
    /** Execution-time multiplier while straggling (> 1). */
    double straggler_slowdown = 2.5;

    /** Mean time between whole-node crashes (s); 0 (the default)
     *  disables them, leaving single-node plans byte-identical. */
    double node_mtbf = 0.0;
    /** Mean node repair time (s) — longer than an instance repair:
     *  the whole host reboots. */
    double mean_node_repair = 30.0;

    /** Mean time between control-plane leader crashes (s); 0 (the
     *  default) disables them, keeping plans byte-identical to
     *  pre-control-plane schedules for the same seed. */
    double leader_mtbf = 0.0;
    /** Mean leader-replica repair time (s). */
    double mean_leader_repair = 5.0;

    /** Mean time between control partitions (s); 0 disables them. */
    double partition_mtbf = 0.0;
    /** Mean control-partition duration (s). */
    double mean_partition = 2.0;

    RecoveryPolicy recovery;
};

/**
 * A fully materialised fault schedule (see file comment). Immutable
 * after generate(); the injector arms every event on the simulator.
 */
class FaultPlan
{
  public:
    /** Derive the schedule from @p cfg. Pure function of @p cfg. */
    static FaultPlan generate(const FaultConfig &cfg);

    const std::vector<FaultEvent> &events() const { return events_; }
    const FaultConfig &config() const { return cfg_; }

    /** Crash events in the schedule (repair pairs not counted). */
    std::size_t num_crashes() const;

  private:
    FaultConfig cfg_;
    std::vector<FaultEvent> events_;
};

} // namespace windserve::fault
