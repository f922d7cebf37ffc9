#include "hal/link_mode.hpp"

namespace braidio::hal {

double bitrate_bps(Bitrate rate) {
  switch (rate) {
    case Bitrate::k10: return 10e3;
    case Bitrate::k100: return 100e3;
    case Bitrate::M1: return 1e6;
  }
  return 0.0;
}

const char* to_string(LinkMode mode) {
  switch (mode) {
    case LinkMode::Active: return "active";
    case LinkMode::PassiveRx: return "passive";
    case LinkMode::Backscatter: return "backscatter";
  }
  return "?";
}

const char* to_string(Bitrate rate) {
  switch (rate) {
    case Bitrate::k10: return "10k";
    case Bitrate::k100: return "100k";
    case Bitrate::M1: return "1M";
  }
  return "?";
}

}  // namespace braidio::hal
