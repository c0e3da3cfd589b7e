//===- runtime/gcheap.h - host object heap with mark-sweep GC ---*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small non-moving mark-sweep heap of host objects referenced from Wasm
/// as externref values. Roots are found by scanning thread value stacks —
/// via value tags or via stackmaps depending on the engine configuration —
/// which is exactly the design axis the paper evaluates (§IV.C).
///
//===----------------------------------------------------------------------===//

#ifndef WISP_RUNTIME_GCHEAP_H
#define WISP_RUNTIME_GCHEAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wisp {

/// A host object: an opaque payload plus references to other host objects
/// (so collection exercises transitive marking). Identified by a stable
/// nonzero id; externref bits hold the id (0 = null).
struct HostObject {
  uint64_t Payload = 0;
  std::vector<uint64_t> Refs; ///< Ids of referenced host objects.
  bool Marked = false;
  bool Live = false;
};

/// Non-moving mark-sweep heap.
class GcHeap {
public:
  /// Allocates an object; returns its nonzero id.
  uint64_t allocate(uint64_t Payload);

  /// Returns the object for a nonzero id; asserts on dangling ids.
  HostObject &object(uint64_t Id);

  /// Runs a full mark-sweep collection from the given root ids.
  /// Returns the number of objects freed.
  size_t collect(const std::vector<uint64_t> &Roots);

  size_t liveCount() const { return LiveCount; }
  size_t collections() const { return Collections; }
  size_t totalAllocated() const { return TotalAllocated; }

private:
  std::vector<HostObject> Objects; ///< Index = id - 1.
  std::vector<uint64_t> FreeList;
  size_t LiveCount = 0;
  size_t Collections = 0;
  size_t TotalAllocated = 0;
};

} // namespace wisp

#endif // WISP_RUNTIME_GCHEAP_H
