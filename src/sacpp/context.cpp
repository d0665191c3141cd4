#include "sacpp/context.hpp"

namespace sac {

snetsac::runtime::Executor& sac_pool() {
  return snetsac::runtime::Executor::global();
}

}  // namespace sac
