// Timing build: no layer is intercepted and nothing is counted.
#include "trace.hpp"

namespace movrbench::trace {

bool enabled() { return false; }
void reset() {}
Totals collect() { return {}; }

}  // namespace movrbench::trace
