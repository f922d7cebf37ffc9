// Propagation models.
//
// Braidio's three link modes see different propagation physics:
//  * active / passive-RX: one-way free-space (Friis) loss, ~d^-2;
//  * backscatter: the carrier travels receiver->tag and the reflection
//    travels tag->receiver, so the end-to-end loss follows the radar
//    equation, ~d^-4, with an additional backscatter (modulation) loss.
#pragma once

namespace braidio::rf {

/// Friis free-space power gain (linear, <= 1 in the far field):
/// Pr/Pt = Gt * Gr * (lambda / (4 pi d))^2. Distances below `min_distance`
/// are clamped to avoid the near-field singularity.
double friis_gain(double distance_m, double freq_hz, double tx_gain_dbi = 0.0,
                  double rx_gain_dbi = 0.0, double min_distance_m = 0.05);

/// Radar-equation round-trip gain for a modulated backscatter link where the
/// carrier source and the backscatter receiver are co-located at distance d
/// from the tag: Pr/Pt = Gr^2 * Gtag^2 * lambda^4 / ((4 pi)^4 d^4) * M,
/// with M the modulation (reflection) efficiency of the tag switch.
double backscatter_gain(double distance_m, double freq_hz,
                        double reader_gain_dbi = 0.0,
                        double tag_gain_dbi = 0.0,
                        double modulation_loss_db = 6.0,
                        double min_distance_m = 0.05);

}  // namespace braidio::rf
