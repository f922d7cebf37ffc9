// Must NOT compile: WattHours and Joules are distinct types; crossing
// them requires the checked to_joules() conversion.
#include "util/units.hpp"

namespace braidio {

util::Joules broken() {
  util::Joules j{0.0};
  j += util::WattHours{0.78};  // forgot to convert: off by 3600x
  return j;
}

}  // namespace braidio
