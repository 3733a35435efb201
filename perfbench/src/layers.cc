#include "layers.h"

#include "alloc/allocator.h"
#include "alloc/coaccess.h"
#include "bench.h"

namespace perfbench {

std::optional<Parts> BuildParts(const warlock::Session& session,
                                const warlock::fragment::Fragmentation& frag,
                                const std::string& allocator, bool traced) {
  const auto& config = session.config();
  auto sizes = warlock::fragment::FragmentSizes::Compute(
      frag, session.schema(), config.fact_index,
      config.cost.disks.page_size_bytes, config.thresholds.max_fragments);
  if (!sizes.ok()) return std::nullopt;
  Parts parts{std::move(sizes).value(),
              warlock::bitmap::BitmapScheme::Select(session.schema(),
                                                    config.bitmap_options),
              std::nullopt, config.cost};
  parts.params.force_expected = false;
  auto backend = warlock::alloc::GetAllocator(allocator);
  if (!backend.ok()) return std::nullopt;
  const auto coaccess =
      warlock::alloc::CoAccessModel::Build(frag, session.schema(), session.mix());
  warlock::alloc::AllocationContext ctx;
  ctx.sizes = &parts.sizes;
  ctx.scheme = &parts.scheme;
  ctx.num_disks = config.cost.disks.num_disks;
  ctx.skew_threshold = config.skew_threshold;
  ctx.coaccess = &coaccess;
  if (config.allocation == warlock::core::AllocationPolicy::kRoundRobin) {
    ctx.forced_scheme = warlock::alloc::AllocationScheme::kRoundRobin;
  } else if (config.allocation == warlock::core::AllocationPolicy::kGreedy) {
    ctx.forced_scheme = warlock::alloc::AllocationScheme::kGreedy;
  }
  std::optional<Tracer::Span> span;
  if (traced) {
    span.emplace(allocator == warlock::alloc::kGraphAllocator ? "alloc.graph"
                                                              : "alloc.warlock");
  }
  auto placed = (*backend)->Allocate(ctx);
  span.reset();
  if (!placed.ok()) return std::nullopt;
  parts.allocation = std::move(placed).value();
  return parts;
}

}  // namespace perfbench
