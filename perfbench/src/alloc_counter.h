// Process-wide heap-allocation counter (see alloc_counter.cc).

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

/// Starts or stops counting operator new calls (all threads).
void ArmAllocCounting(bool armed);

/// Allocations counted while armed, since process start.
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
