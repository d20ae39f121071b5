/**
 * @file
 * The multi-core GALS fabric: a System owns one shared EventQueue, N
 * Processor cores (each with its own five clock domains, exactly the
 * paper pipeline), and a generated topology of inter-core links.
 *
 * Each directed link is itself a GALS element: a private ClockDomain
 * clocking a store-and-forward hop, fed and drained through two
 * Channel segments (source core -> link, link -> destination core).
 * In base mode the segments are synchronous latches on a common
 * period; in GALS mode they are Chelcea-Nowick FIFOs and the link
 * clock gets a random phase — so the fabric inherits the exact
 * synchronizer semantics the paper gives the intra-core FIFOs.
 *
 * Traffic: each core's NIC injects one remote request per
 * FabricConfig::trafficInterval committed instructions, round-robin
 * over its TrafficMatrix flows, and stalls fetch while
 * trafficWindow requests await their completion replies — the
 * "remote-completion dependency" that couples core progress to
 * fabric latency.
 *
 * Determinism contract: everything runs on the one EventQueue; NICs
 * and link hops are ordinary prioritized tickers (stages 10, NIC 20,
 * energy 90), channels are drained in fixed ascending-source order,
 * and all randomness comes from seeds in the RunConfig. Results are
 * therefore byte-identical across --jobs and shard/merge round trips,
 * like every single-core run.
 */

#ifndef FABRIC_SYSTEM_HH
#define FABRIC_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "core/processor.hh"
#include "fabric/topology.hh"
#include "sim/event_queue.hh"

namespace gals
{

/** One message on the fabric: a remote request or its completion. */
struct FabricMsg
{
    unsigned src = 0;
    unsigned dst = 0;
    std::uint64_t seq = 0;
    bool reply = false;
    Tick sendTick = 0; ///< injection time of the original request
};

/**
 * N cores plus the fabric, built from one RunConfig with
 * cfg.fabric.active(). run() owns the event-service loop and returns
 * the aggregated RunResults with the per-core breakdown filled in.
 */
class System
{
  public:
    explicit System(const RunConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run every core to cfg.instructions committed; single use. */
    RunResults run();

    unsigned cores() const { return static_cast<unsigned>(procs_.size()); }
    Processor &core(unsigned i) { return *procs_[i]; }
    EventQueue &eventQueue() { return eq_; }

  private:
    class Link;
    class Nic;

    void buildCores();
    void buildFabric();
    RunResults aggregate();

    RunConfig cfg_;
    EventQueue eq_;
    std::vector<std::unique_ptr<Processor>> procs_;
    std::vector<std::unique_ptr<Link>> links_;
    std::vector<std::unique_ptr<Nic>> nics_;
    bool ran_ = false;
};

/** Convenience wrapper: build a System from @p cfg and run it. */
RunResults runSystem(const RunConfig &cfg);

} // namespace gals

#endif // FABRIC_SYSTEM_HH
