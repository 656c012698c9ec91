// Closed-loop wiring for the distributed engine: DistLrgp's allocation
// samples -> enactment policy -> dataplane traffic, with the dataplane's
// clock advanced in lockstep, so fault scenarios show up as *measured*
// utility dips rather than just allocation-trace dips.
//
// The synchronous engines close the same loop through
// scenario::replay (scenario/runner.hpp), which also applies a schedule
// of dynamic ops and mirrors it into the dataplane.
#pragma once

#include <cstddef>

#include "dataplane/dataplane.hpp"
#include "dist/dist_lrgp.hpp"
#include "lrgp/enactment.hpp"

namespace lrgp::dataplane {

/// Couples a DistLrgp engine to a Dataplane for the engine's lifetime:
/// every allocation sample the protocol takes is offered to the
/// enactment policy and the dataplane clock is advanced to the
/// protocol's clock.  The dataplane therefore follows whatever
/// allocation the protocol has actually converged to, including the
/// degraded allocations it holds while a FaultPlan scenario is active.
/// Construct before DistLrgp::runFor; keep alive while the engine runs.
class DistCoupling {
public:
    /// Installs itself as `engine`'s sample callback (replacing any
    /// previous one).  Both references must outlive the coupling.
    DistCoupling(dist::DistLrgp& engine, Dataplane& dataplane, core::EnactmentOptions options);

    [[nodiscard]] std::size_t offers() const noexcept { return enactor_.offers(); }
    [[nodiscard]] std::size_t enactments() const noexcept { return enactor_.enactments(); }
    [[nodiscard]] std::size_t suppressions() const noexcept { return enactor_.suppressions(); }

private:
    Dataplane& dataplane_;
    core::EnactmentController enactor_;
};

}  // namespace lrgp::dataplane
