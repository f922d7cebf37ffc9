#!/usr/bin/env python3
"""Post-mortem report over a braidio-netstats/v2 flight-recorder export.

Usage:

    python3 tools/netreport.py NETSTATS_JSON [--trace FLOW_TRACE_JSON]
        [--top 10] [--max-children 8]

NETSTATS_JSON is the per-node/per-link record written by
`braidio_cli net --net-stats-out=<file>` (see src/net/netstats.hpp).
Three views:

* Top talkers — nodes ranked by transmit attempts, with their delivery,
  relay, and drop counters alongside so a hot node's fate is readable in
  one row.

* Per-hop loss tree — the routing tree (every node's uplink points at
  its next hop toward hub 0) annotated with per-link attempts, acks,
  and the data/ack loss split. Wide fan-outs are summarized beyond
  --max-children so a 10k-tag star stays one screen.

* TDMA slot utilization — registration/reclaim counters per node drawn
  as a compact per-node strip (one glyph per node, '.' idle through '#'
  busiest). Skipped when the run recorded no slot activity (CSMA).

With --trace, also parses a Chrome flow-event export (--trace-out from
the same run) and reports packet-lifecycle coverage: how many packets
were born, delivered, dropped, and the deepest relay chains.

Exit code 0 on success, 2 on malformed input (one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

SCHEMA = "braidio-netstats/v2"
# The node_counters columns the views read.
NODE_COLUMNS = ("tx_attempts", "cca_busy", "collisions", "delivered",
                "relayed", "drops_access", "drops_arq", "slot_registrations",
                "slots_reclaimed")


class MalformedInput(Exception):
    """An input file netreport cannot report on (exit code 2)."""


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedInput(f"cannot read {path}: {e}") from e
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: expected a JSON object")
    return doc


def check_netstats(path: str, doc: dict) -> None:
    """Reject a record whose columns the views would trip over."""
    if doc.get("schema") != SCHEMA:
        raise MalformedInput(f"{path}: unexpected schema "
                             f"{doc.get('schema')!r}")
    if not doc.get("enabled", False):
        return
    n = doc.get("nodes")
    if not isinstance(n, int) or n < 0:
        raise MalformedInput(f"{path}: 'nodes' must be a count")
    counters = doc.get("node_counters")
    links = doc.get("links", {})
    if not isinstance(counters, dict) or not isinstance(links, dict):
        raise MalformedInput(f"{path}: 'node_counters' and 'links' must be "
                             f"objects")
    for name in NODE_COLUMNS:
        if name not in counters:
            raise MalformedInput(f"{path}: no {name!r} column")
    columns = list(counters.items())
    columns += [(f"links.{name}", col) for name, col in links.items()]
    for name, col in columns:
        if (not isinstance(col, list) or len(col) != n or
                not all(isinstance(v, int) for v in col)):
            raise MalformedInput(f"{path}: column {name!r} must list {n} "
                                 f"integers")


def check_trace(path: str, doc: dict) -> None:
    events = doc.get("traceEvents", [])
    if not isinstance(events, list) or not all(
            isinstance(e, dict) for e in events):
        raise MalformedInput(f"{path}: 'traceEvents' must be a list of "
                             f"objects")
    for e in events:
        if e.get("name") == "packet" and not isinstance(e.get("id", -1),
                                                         int):
            raise MalformedInput(f"{path}: packet flow event without an "
                                 f"integer id")


def pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole > 0 else "    -"


def node_rows(doc: dict) -> list[dict]:
    """Re-shape the column-major node_counters + links into per-node rows."""
    counters = doc.get("node_counters", {})
    links = doc.get("links", {})
    n = int(doc.get("nodes", 0))
    rows = []
    for i in range(n):
        row = {name: col[i] for name, col in counters.items()}
        row["node"] = i
        for name in ("dst", "attempts", "acked", "data_lost", "ack_lost"):
            row[name] = links.get(name, [0] * n)[i]
        rows.append(row)
    return rows


def report_top_talkers(rows: list[dict], top: int) -> None:
    talkers = sorted(rows, key=lambda r: (-r["tx_attempts"], r["node"]))
    talkers = [r for r in talkers if r["tx_attempts"] > 0][:top]
    print(f"== top talkers (by tx attempts, top {top}) ==")
    if not talkers:
        print("  (no transmissions recorded)")
        return
    print(f"  {'node':>6} {'tx':>8} {'cca':>8} {'coll':>7} {'deliv':>7} "
          f"{'relay':>7} {'drops':>7} {'link-loss':>9}")
    for r in talkers:
        drops = r["drops_access"] + r["drops_arq"]
        lost = r["data_lost"] + r["ack_lost"]
        print(f"  {r['node']:>6} {r['tx_attempts']:>8} {r['cca_busy']:>8} "
              f"{r['collisions']:>7} {r['delivered']:>7} {r['relayed']:>7} "
              f"{drops:>7} {pct(lost, r['attempts']):>9}")


def report_loss_tree(rows: list[dict], max_children: int) -> None:
    children: dict[int, list[int]] = defaultdict(list)
    for r in rows:
        if r["node"] != 0 and r["dst"] >= 0:
            children[r["dst"]].append(r["node"])
    stranded = [r["node"] for r in rows if r["node"] != 0 and r["dst"] < 0]

    print("== per-hop loss tree (hub = node 0) ==")

    def link_label(r: dict) -> str:
        lost = r["data_lost"] + r["ack_lost"]
        return (f"n{r['node']:<5} -> n{r['dst']:<5} "
                f"attempts {r['attempts']:>7}  acked {r['acked']:>7}  "
                f"loss {pct(lost, r['attempts'])} "
                f"(data {r['data_lost']}, ack {r['ack_lost']})")

    def walk(node: int, depth: int) -> None:
        kids = sorted(children.get(node, []),
                      key=lambda c: -rows[c]["attempts"])
        shown = kids[:max_children]
        for child in shown:
            print("  " + "  " * depth + link_label(rows[child]))
            walk(child, depth + 1)
        rest = kids[max_children:]
        if rest:
            attempts = sum(rows[c]["attempts"] for c in rest)
            lost = sum(rows[c]["data_lost"] + rows[c]["ack_lost"]
                       for c in rest)
            print("  " + "  " * depth +
                  f"... {len(rest)} more uplinks into n{node} "
                  f"(attempts {attempts}, loss {pct(lost, attempts)})")

    walk(0, 0)
    if stranded:
        print(f"  (stranded, no route: {len(stranded)} node(s), e.g. "
              f"{stranded[:5]})")


def report_tdma_map(rows: list[dict], width: int = 64) -> None:
    regs = [r["slot_registrations"] for r in rows]
    total = sum(regs)
    print("== TDMA slot utilization ==")
    if total == 0:
        print("  (no slot activity recorded — CSMA run?)")
        return
    reclaimed = sum(r["slots_reclaimed"] for r in rows)
    peak = max(regs)
    print(f"  registrations {total}, reclaims {reclaimed}, "
          f"peak per node {peak}")
    # One glyph per node: '.' never registered, then quartiles of the
    # peak. Rows of `width` nodes keep a 10k-tag map scrollable.
    glyphs = ".-=*#"
    for start in range(0, len(regs), width):
        strip = ""
        for v in regs[start:start + width]:
            if v == 0:
                strip += glyphs[0]
            else:
                strip += glyphs[1 + min(3, (4 * (v - 1)) // max(1, peak))]
        print(f"  {start:>6} {strip}")


def report_trace(doc: dict) -> None:
    events = doc.get("traceEvents", [])
    chains: dict[int, dict] = defaultdict(
        lambda: {"steps": 0, "relays": 0, "end": None})
    for e in events:
        if e.get("name") != "packet":
            continue
        c = chains[e.get("id", -1)]
        ph = e.get("ph")
        if ph == "t":
            c["steps"] += 1
            if str(e.get("args", {}).get("label", "")).startswith("relay"):
                c["relays"] += 1
        elif ph == "f":
            c["end"] = str(e.get("args", {}).get("label", ""))
    print("== packet lifecycle (flow trace) ==")
    if not chains:
        print("  (no packet flow events in the trace)")
        return
    delivered = sum(1 for c in chains.values()
                    if c["end"] and c["end"].startswith("ack"))
    dropped = sum(1 for c in chains.values()
                  if c["end"] and c["end"].startswith("drop"))
    multi = sum(1 for c in chains.values() if c["relays"] > 0)
    deepest = max(c["relays"] for c in chains.values())
    print(f"  packets traced {len(chains)}, delivered {delivered}, "
          f"dropped {dropped}, still in flight "
          f"{len(chains) - delivered - dropped}")
    print(f"  multi-hop chains {multi}, deepest relay chain {deepest} "
          f"hop(s)")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("netstats", help="braidio-netstats/v2 JSON path")
    parser.add_argument("--trace", help="Chrome flow-event trace path")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the top-talkers table")
    parser.add_argument("--max-children", type=int, default=8,
                        help="children shown per tree node before summary")
    args = parser.parse_args()

    try:
        doc = load(args.netstats)
        check_netstats(args.netstats, doc)
        trace = None
        if args.trace:
            trace = load(args.trace)
            check_trace(args.trace, trace)
    except MalformedInput as e:
        print(f"netreport: {e}", file=sys.stderr)
        return 2
    if not doc.get("enabled", False):
        print("netreport: record disabled (run without flight recorder?)")
        return 0

    rows = node_rows(doc)
    print(f"netreport: {doc.get('nodes', 0)} nodes, "
          f"{doc.get('events', 0)} events, "
          f"{doc.get('elapsed_s', 0)} s virtual time")
    lat = doc.get("latency", {})
    if lat.get("count", 0) > 0:
        print(f"  delivery latency: p50 {lat['p50_s']} s, "
              f"p95 {lat['p95_s']} s, p99 {lat['p99_s']} s "
              f"({lat['count']} deliveries)")
    print()
    report_top_talkers(rows, args.top)
    print()
    report_loss_tree(rows, args.max_children)
    print()
    report_tdma_map(rows)
    if trace is not None:
        print()
        report_trace(trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
