//===- runtime/gcheap.cpp - host object heap with mark-sweep GC -----------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "runtime/gcheap.h"

#include <cassert>

using namespace wisp;

uint64_t GcHeap::allocate(uint64_t Payload) {
  ++TotalAllocated;
  ++LiveCount;
  if (!FreeList.empty()) {
    uint64_t Id = FreeList.back();
    FreeList.pop_back();
    HostObject &O = Objects[Id - 1];
    O.Payload = Payload;
    O.Refs.clear();
    O.Marked = false;
    O.Live = true;
    return Id;
  }
  Objects.push_back(HostObject{Payload, {}, false, true});
  return uint64_t(Objects.size());
}

HostObject &GcHeap::object(uint64_t Id) {
  assert(Id != 0 && Id <= Objects.size() && "bad host object id");
  HostObject &O = Objects[Id - 1];
  assert(O.Live && "access to collected host object");
  return O;
}

size_t GcHeap::collect(const std::vector<uint64_t> &Roots) {
  ++Collections;
  // Mark.
  std::vector<uint64_t> Work;
  for (uint64_t Id : Roots) {
    if (Id == 0)
      continue;
    assert(Id <= Objects.size() && "root id out of range");
    HostObject &O = Objects[Id - 1];
    // A conservative scan (stale tags) may report ids of already-collected
    // objects; those are simply ignored, which is safe for a non-moving
    // collector.
    if (!O.Live || O.Marked)
      continue;
    O.Marked = true;
    Work.push_back(Id);
  }
  while (!Work.empty()) {
    uint64_t Id = Work.back();
    Work.pop_back();
    for (uint64_t Ref : Objects[Id - 1].Refs) {
      if (Ref == 0)
        continue;
      HostObject &O = Objects[Ref - 1];
      if (O.Live && !O.Marked) {
        O.Marked = true;
        Work.push_back(Ref);
      }
    }
  }
  // Sweep.
  size_t Freed = 0;
  for (size_t I = 0; I < Objects.size(); ++I) {
    HostObject &O = Objects[I];
    if (!O.Live)
      continue;
    if (O.Marked) {
      O.Marked = false;
      continue;
    }
    O.Live = false;
    O.Refs.clear();
    FreeList.push_back(uint64_t(I + 1));
    ++Freed;
  }
  LiveCount -= Freed;
  return Freed;
}
