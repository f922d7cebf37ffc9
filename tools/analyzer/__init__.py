"""braidio-analyzer: the repo's one source checker (DESIGN.md §13).

A1 determinism   no wall clock in src/ outside the util/obs timing
                 shims; no iteration over std::unordered_map/set whose
                 results flow into ResultTable/EnergyProfile/exports;
                 no pointer-keyed std::map/std::set ordering.
A2 energy-flow   every EnergyLedger::charge call site is lexically
                 inside a BRAIDIO_ENERGY_SPAN scope (or annotated
                 `// analyzer: unattributed(<reason>)`), and charge
                 amounts originate in the units layer, not raw
                 numeric literals.
A3 units         public APIs in src/energy, src/core, src/mac and
                 src/phy must not take raw `double` parameters with
                 unit-suffixed names (_j/_s/_w/_dbm/_hz/_wh) — use
                 the strong types in src/util/units.hpp.
A4 contracts     overloads of a REQUIRE-checked function in the same
                 header/source pair must not silently skip the
                 precondition.
A5 layering      src/mac/ includes no phy/ or core/ header; src/net/
                 and src/core/ include no header of each other;
                 src/plan/ includes no core/ or net/ header.
A6 event order   no hash- or address-ordered iteration in src/net/.
A8 one planner   OffloadPlanner::plan/plan_bidirectional only in
                 plan/offload.cpp and core/efficiency.cpp.
A9-A14 hygiene   seeded RNG only, no naked stdout in src/, every
                 src/*.cpp covered by a registered test, tabs/trailing
                 blanks/80 columns, threads spawned only in src/sim/,
                 trace events instead of info logging in src/.

A1-A6 and A8 look at src/ only; A9-A14 cover src/, tests/, bench/ and
examples/ as far as the rule says.

Suppressions: `// analyzer: <rule-key>(<reason>)` on the finding line
or the line above. The reason string is mandatory; an empty reason is
itself a finding.
"""
