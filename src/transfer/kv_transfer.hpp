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
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/instance.hpp"
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

/**
 * One replica of a serving system: a prefill/decode instance pair with
 * its private transfer path, or one co-located engine (`decode` and
 * `xfer` null). Owns the pair's prefill -> decode KV hand-off and the
 * ledger of hand-offs in flight, which sit in neither instance's
 * queues, so a prefill crash must sweep them from here.
 */
struct InstancePair {
    std::unique_ptr<engine::Instance> prefill;
    std::unique_ptr<engine::Instance> decode;
    std::unique_ptr<KvTransferManager> xfer;
    /** Hand-offs in flight (or parked by the owner). Ordered: the
     *  crash sweep iterates it. */
    std::map<workload::RequestId, workload::Request *> transferring;
    /** A handed-off request reached the decode queue; set once by the
     *  owner. */
    std::function<void(workload::Request *)> on_landed;

    /** Where decodes run: the decode instance, or the engine itself. */
    engine::Instance &decode_side() { return decode ? *decode : *prefill; }

    /**
     * Move a freshly prefilled @p r to the decode queue, then call
     * on_landed(@p r). A co-located engine decodes in place at once. A
     * pair ships the prompt KV over `xfer` and releases the prefill KV
     * when the copy lands; a landing after a prefill crash
     * re-dispatched @p r is ignored.
     */
    void hand_off(workload::Request *r);

    /** The prefill instance crashed: move every ledger entry into
     *  @p victims, in request-id order. */
    void sweep(std::vector<workload::Request *> &victims);

    /**
     * Attach @p at to the instances and the transfer path. Registers
     * metrics on the telemetry (prefill, decode, p2d, d2p, staged) and
     * fault targets on the injector (prefill, decode, p2d, d2p), in
     * that order; absent members are skipped.
     */
    void attach(const engine::Attachments &at);
};

} // namespace windserve::transfer
