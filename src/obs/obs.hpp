// Umbrella header for the observability subsystem.
//
// Instrumented layers include this one header and use:
//
//   BRAIDIO_TRACE_EVENT(obs::EventType::ModeSwitch, label, sim_s, value);
//   obs::count(obs::Counter::ArqRetries);
//   obs::observe(obs::Histogram::DwellSeconds, dt);
//   BRAIDIO_ENERGY_SPAN(scope, "data");  // energy attribution (span.hpp)
//
// BRAIDIO_TRACE_EVENT does NOT evaluate its arguments unless tracing is
// enabled, so call sites may pass freshly-built strings
// (`plan.summary().c_str()`) without paying for them in the common
// disabled case. With the BRAIDIO_OBS CMake option OFF everything here
// compiles to nothing.
#pragma once

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_config.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"

namespace braidio::obs {

/// True when trace events are being recorded — use to guard expensive
/// label construction that cannot live inside the macro's argument list.
inline bool tracing() {
#if BRAIDIO_OBS_COMPILED
  return Tracer::enabled();
#else
  return false;
#endif
}

}  // namespace braidio::obs

#if BRAIDIO_OBS_COMPILED
#define BRAIDIO_TRACE_EVENT(type, label, sim_s, value)              \
  do {                                                              \
    if (::braidio::obs::Tracer::enabled()) {                        \
      ::braidio::obs::Tracer::instance().record((type), (label),    \
                                                (sim_s), (value));  \
    }                                                               \
  } while (0)
#else
// Names the arguments in unevaluated sizeof operands, so a value whose
// only use is a trace event is not an unused variable, and nothing runs.
#define BRAIDIO_TRACE_EVENT(type, label, sim_s, value) \
  do {                                                 \
    (void)sizeof(type);                                \
    (void)sizeof(label);                               \
    (void)sizeof(sim_s);                               \
    (void)sizeof(value);                               \
  } while (0)
#endif
