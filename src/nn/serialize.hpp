// Save/load a parameter list to a binary file. Shapes are verified on load
// so a file trained with a different architecture is rejected, not misread.
#pragma once

#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace camo::nn {

/// Writes a process-unique temp file next to `path` and renames it into
/// place, so `path` only ever holds a complete file. Throws
/// std::runtime_error (leaving `path` untouched) when the file cannot be
/// created, written or renamed.
void save_params(const std::string& path, const std::vector<Parameter*>& params);

/// Returns false (leaving params untouched) if the file is missing or the
/// shapes do not match.
bool load_params(const std::string& path, const std::vector<Parameter*>& params);

}  // namespace camo::nn
