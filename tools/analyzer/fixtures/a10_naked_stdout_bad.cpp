// analyzer-path: src/phy/fixture_naked_stdout.cpp
// Known-bad fixture: library code printing straight to the console.
// src/ returns data or logs through util/log; only util/log.cpp and
// util/contract.cpp write to the standard streams.
#include <cstdio>
#include <iostream>
#include <string>

namespace braidio::phy {

void report(double ber) {
  // expect: A10-no-naked-stdout
  std::printf("ber %g\n", ber);
  // expect: A10-no-naked-stdout
  std::cerr << "ber " << ber << '\n';
  // expect: A10-no-naked-stdout
  puts("done");
}

// No finding: formatting into a buffer prints nothing, and the stream
// name below sits in a string literal.
std::string describe(double ber) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", ber);
  return std::string(buffer) + " (not std::cout)";
}

}  // namespace braidio::phy
