// analyzer-path: examples/fixture_url_then_engine.cpp
// Known-bad fixture: code after a URL string. A checker that drops
// everything from "//" to the end of the line never sees the engine;
// the blanker erases only the string's contents.
// expect: A9-no-global-rng
#include <random>

namespace braidio {

// expect: A9-no-global-rng
const char* kSite = "http://example.org"; std::mt19937 engine(1);

}  // namespace braidio
