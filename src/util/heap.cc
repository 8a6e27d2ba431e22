#include "util/heap.h"

#include <cstdlib>  // defines __GLIBC__ on glibc
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace xia {

void ReleaseFreeHeapPages() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace xia
