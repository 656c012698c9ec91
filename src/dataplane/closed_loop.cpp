#include "dataplane/closed_loop.hpp"

namespace lrgp::dataplane {

DistCoupling::DistCoupling(dist::DistLrgp& engine, Dataplane& dataplane,
                           core::EnactmentOptions options)
    : dataplane_(dataplane),
      enactor_(options, [&dataplane](const model::Allocation& allocation) {
          dataplane.enact(allocation);
      }) {
    engine.setSampleCallback([this](sim::SimTime now, const model::Allocation& allocation) {
        dataplane_.notePlanned(allocation);
        enactor_.offer(now, allocation);
        dataplane_.runUntil(now);
    });
}

}  // namespace lrgp::dataplane
