// The CAMO engine loop rebuilt from the library's public calls, with a span
// around each core step the library itself leaves dark (graph build, squish
// encoding, policy forward, modulation). Litho work inside the loop is
// covered by the library's own litho spans.
//
// The via-camo traced round runs this in place of CamoEngine::infer. It
// must reproduce the engine's final offsets and metrics bit for bit; every
// traced run checks that against the engine's own round, so a drift
// between the mirror and the engine fails the run instead of skewing the
// attribution.
#pragma once

#include "core/camo.hpp"
#include "litho/simulator.hpp"

namespace perfbench {

/// CamoEngine::infer with argmax actions (the batch path's default).
camo::opc::EngineResult traced_camo_infer(camo::core::CamoEngine& engine,
                                          const camo::geo::SegmentedLayout& layout,
                                          camo::litho::LithoSim& sim,
                                          const camo::opc::OpcOptions& opt);

}  // namespace perfbench
