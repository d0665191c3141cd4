#include "sacpp/context.hpp"

#include "runtime/env.hpp"

namespace sac {

Context& default_context() {
  static Context ctx{snetsac::runtime::default_sac_threads(), 1024};
  return ctx;
}

snetsac::runtime::Executor& sac_pool() {
  return snetsac::runtime::Executor::global();
}

}  // namespace sac
