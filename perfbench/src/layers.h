// A candidate's evaluation parts rebuilt from the layers' public functions
// (the advisor's own evaluation context is private): fragment sizes, the
// bitmap scheme, the disk placement of one allocation backend, and the cost
// parameters.
#ifndef WARLOCK_PERFBENCH_LAYERS_H_
#define WARLOCK_PERFBENCH_LAYERS_H_

#include <optional>
#include <string>

#include "alloc/disk_allocation.h"
#include "bitmap/scheme.h"
#include "cost/query_cost.h"
#include "fragment/fragment_sizes.h"
#include "warlock/session.h"

namespace perfbench {

struct Parts {
  warlock::fragment::FragmentSizes sizes;
  warlock::bitmap::BitmapScheme scheme;
  std::optional<warlock::alloc::DiskAllocation> allocation;
  warlock::cost::CostParameters params;
};

// Rebuilds `frag`'s parts under `session`'s inputs and config with the
// named allocation backend. With `traced`, the Allocate call is recorded as
// an `alloc.<backend>` span. nullopt when a layer rejects the candidate.
std::optional<Parts> BuildParts(const warlock::Session& session,
                                const warlock::fragment::Fragmentation& frag,
                                const std::string& allocator, bool traced);

}  // namespace perfbench

#endif  // WARLOCK_PERFBENCH_LAYERS_H_
