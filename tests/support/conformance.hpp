// Shared HAL conformance suite.
//
// Every registered backend must pass the same contract checks: the
// capability set must be honest (no lattice entry the feature flags do not
// cover, no nonsense powers), the channel model must be physically sane
// around its own declared range, each primitive op must conserve energy
// (battery drain == ledger postings), the request/confirm state machine
// must enforce legality, and identical op sequences must replay
// bit-identically. The suite is a plain function returning violation
// strings; tests/hal_conformance_test.cpp runs it once per registered
// backend, and hal_backend_test on the shipped backends. It is test
// support (braidio_test_support), not part of the library.
#pragma once

#include <string>
#include <vector>

#include "hal/backend.hpp"

namespace braidio::hal {

/// Run the full conformance suite against `backend`. Returns one message
/// per violated contract clause; an empty vector means the backend
/// conforms.
std::vector<std::string> conformance_violations(const RadioBackend& backend);

}  // namespace braidio::hal
