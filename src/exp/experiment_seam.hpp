// Test seam of the run matrix (exp/experiment.hpp); not part of the
// library's interface.  Thread timing alone parks a run only now and
// then, so the parking tests hold a simulation's filler here until a
// repeat of its schedule has parked.
#pragma once

#include <cstddef>

namespace rats::detail {

/// When set, the run that claims a simulation slot calls it with its
/// run index before it simulates; if it throws, the simulation fails
/// with its exception.  Set and reset it only while no run matrix
/// runs.
extern void (*simulation_claimed)(std::size_t run);

}  // namespace rats::detail
