// The shipped chaos scenarios — one catalog shared by the DistLrgp chaos
// suite (ChaosRecovery.EveryShippedScenarioReconvergesWithinOnePercent)
// and the async runtime suite (AsyncChaos.*), so "every shipped scenario
// reconverges" is a single, enforced definition.
//
// Each scenario perturbs the system inside [fault_start, fault_end] and
// is expected to heal afterwards: the hardened asynchronous protocol
// must return to within 1% of its pre-fault steady-state utility.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"

namespace lrgp::faults {

struct ChaosScenario {
    std::string name;
    std::string description;
    FaultPlan plan;
    sim::SimTime fault_start = 0.0;  ///< first injected disturbance
    sim::SimTime fault_end = 0.0;    ///< all faults healed/restarted by here
};

/// Builds the standard catalog for a workload with the given agent
/// counts: loss burst, delay spike, reorder storm, partition, flapping
/// link (periodic short partition pulses), asymmetric partition (the
/// victim hears its peers but is not heard), node/source crash and
/// price corruption.  Faults open at `t0` and heal within `duration`
/// seconds.
/// Targeted faults hit the *last* node and the *last* flow (in the
/// Table 1 base workload: c-node S2 and flow f0_5, the largest utility
/// contributor).  Link scenarios are included only when links exist.
[[nodiscard]] std::vector<ChaosScenario> standard_scenarios(std::size_t flow_count,
                                                            std::size_t node_count,
                                                            std::size_t link_count,
                                                            sim::SimTime t0 = 10.0,
                                                            sim::SimTime duration = 2.0);

}  // namespace lrgp::faults
