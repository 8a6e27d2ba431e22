// Returning freed heap memory to the operating system.

#ifndef XIA_UTIL_HEAP_H_
#define XIA_UTIL_HEAP_H_

namespace xia {

/// Asks the allocator to hand its free heap pages back to the OS
/// (glibc's malloc_trim(0); a no-op with other C libraries). Freed
/// blocks below a live allocation cannot shrink the heap by themselves,
/// so after a large teardown their pages stay resident for the life of
/// the process. The call walks the allocator's free lists: use it after
/// dropping a whole store or a statistics pass, never per request.
void ReleaseFreeHeapPages();

}  // namespace xia

#endif  // XIA_UTIL_HEAP_H_
