#pragma once
// Inert execution-backend tag. The band-parallel ring has a single host
// engine (dist/circulate.hpp), so nothing selects on this enum any more;
// it survives only as the type of the ignored RunConfig::backend field,
// which perfbench still assigns. Both go once perfbench stops doing so.

namespace ptim::backend {

enum class Kind { kSync, kHostSerial, kHostAsync };

}  // namespace ptim::backend
