#include "harness/harness.hh"

#include <cstdlib>
#include <cstring>

#include "support/logging.hh"

namespace pca::harness
{

bool
defaultDecodeCache()
{
    const char *spec = std::getenv("PCA_DECODE");
    if (!spec || !*spec)
        return true;
    return !(std::strcmp(spec, "0") == 0 ||
             std::strcmp(spec, "off") == 0 ||
             std::strcmp(spec, "false") == 0);
}

const char *
countingModeName(CountingMode m)
{
    switch (m) {
      case CountingMode::User: return "user";
      case CountingMode::UserKernel: return "user+kernel";
      case CountingMode::Kernel: return "kernel";
    }
    return "?";
}

PlMask
toPlMask(CountingMode m)
{
    switch (m) {
      case CountingMode::User: return PlMask::User;
      case CountingMode::UserKernel: return PlMask::UserKernel;
      case CountingMode::Kernel: return PlMask::Kernel;
    }
    pca_panic("bad counting mode");
}

} // namespace pca::harness
