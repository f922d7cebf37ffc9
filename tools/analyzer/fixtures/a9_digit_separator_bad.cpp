// analyzer-path: tests/fixture_digit_separator_test.cpp
// Known-bad fixture: digit separators are not char literals. If the
// blanker opened a literal at 1'000 it would erase the engine after it,
// and by eating the newline it would shift every later line up by one,
// so the waiver below would no longer sit on its finding's line.
// expect: A9-no-global-rng
#include <random>

// expect: A9-no-global-rng
// expect: A9-no-global-rng
int draws = 1'000; std::mt19937 engine(draws); std::random_device device;
int burst = 10'000;
std::mt19937 waived(burst);  // analyzer: no-global-rng(layout pin)
