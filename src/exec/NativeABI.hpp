//===- exec/NativeABI.hpp - Host-side view of the native codegen ABI -------===//
//
// Includes NativeABI.inc into a namespace so the host side in
// NativeBackend.cpp manipulates the exact struct layouts the generated
// code was compiled against (the generated TU splices the same bytes at
// global scope; see NativeEmbedded.hpp).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>

namespace codesign::exec::abi {
#include "NativeABI.inc"
} // namespace codesign::exec::abi
