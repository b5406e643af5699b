/**
 * @file
 * Prefill -> decode KV-cache transfer policies.
 *
 * DistServe transfers a request's KV after its prefill completes; on
 * PCIe-class interconnects this serialises a ~tens-of-ms copy into the
 * request's critical path (the paper's §2.2 example: ~65 ms for a full
 * 2048-token OPT-13B context over PCIe Gen4).
 *
 * WindServe instead streams KV layer-by-layer *during* the prefill pass
 * ("mitigates the inherent KV cache transfer overhead by overlapping
 * transfers with prefill computations", §3), leaving only the last
 * layer's tail on the critical path. Both policies are provided.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "hw/transfer_engine.hpp"
#include "model/model_spec.hpp"
#include "workload/request.hpp"

namespace windserve::transfer {

/** How prefill KV reaches the decode instance. */
enum class TransferPolicy {
    Synchronous, ///< after prefill, full copy on the critical path
    Overlapped,  ///< streamed during prefill; only the tail remains
};

/** Configuration of the transfer path between an instance pair. */
struct KvTransferConfig {
    TransferPolicy policy = TransferPolicy::Synchronous;
    /**
     * Fraction of the KV copy left after the prefill pass when
     * overlapping (the last pipeline layer's share; 1/num_layers would
     * be exact, a small constant is robust across models).
     */
    double overlap_tail_fraction = 0.05;
    /**
     * Bandwidth of the host-staged fallback path relative to the direct
     * link (GPU -> host DRAM -> GPU bounce when the direct path times
     * out under fault injection).
     */
    double staged_bandwidth_factor = 0.25;
    /**
     * Prefix for the three channel names ("kv/p2d" etc.). The auditor
     * keys its transfer ledgers by channel name, so multi-pod systems
     * must give each pod's transfer manager a unique prefix (e.g.
     * "pod3/"). The default empty prefix keeps the historical names.
     */
    std::string name_prefix;
};

/**
 * Moves prefill KV between a prefill/decode instance pair. Owns one
 * channel per direction of the inter-instance link (NVLink and PCIe are
 * full duplex, so prefill KV pushes do not contend with migration
 * traffic flowing the other way).
 */
class KvTransferManager
{
  public:
    KvTransferManager(sim::Simulator &sim, hw::Link link,
                      const model::ModelSpec &model, KvTransferConfig cfg);

    /**
     * Ship @p r 's prompt KV to the decode side; @p done fires when the
     * decode instance may admit the request.
     */
    void transfer_prefill_kv(workload::Request *r, std::function<void()> done);

    /** Channel carrying decode -> prefill traffic (migrations, backups). */
    hw::Channel &reverse_channel() { return d2p_; }

    /** Channel carrying prefill -> decode traffic. */
    hw::Channel &forward_channel() { return p2d_; }

    /** Host-staged fallback path (outage-immune, slower). */
    hw::Channel &staged_channel() { return staged_; }

    /** KV bytes for @p tokens tokens of this model. */
    double bytes_for_tokens(double tokens) const;

    /**
     * Attach @p at: at.trace records occupancy spans of every link,
     * at.audit checks every link and the Transferring transition, and
     * at.faults arms the transfer watchdog — when its recovery policy
     * sets a transfer timeout, a prefill-KV copy that has not landed by
     * then is re-issued over the host-staged path (the direct copy is
     * disowned — its completion is ignored). Null pointers (the
     * default) disable each with zero behavioural change.
     */
    void attach(const engine::Attachments &at);

    const KvTransferConfig &config() const { return cfg_; }

  private:
    sim::Simulator &sim_;
    KvTransferConfig cfg_;
    double kv_bytes_per_token_;
    hw::Channel p2d_;
    hw::Channel d2p_;
    hw::Channel staged_;
    audit::SimAuditor *audit_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;
};

} // namespace windserve::transfer
