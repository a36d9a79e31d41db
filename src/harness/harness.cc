#include "harness/harness.hh"

#include "support/logging.hh"

namespace pca::harness
{

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
