#!/usr/bin/env python3
"""A Smart SSD array as a miniature parallel DBMS (paper §4.3).

"At the extreme end of this spectrum, the host machine could simply be the
coordinator that stages computation across an array of Smart SSDs..."

Shards LINEITEM round-robin across N devices, replicates PART, and runs
Q6 (partitioned aggregate) and Q14 (partitioned join with a replicated
build side) through the session's scatter/gather path, with the host
acting purely as the merge coordinator.

Run:  python examples/smart_ssd_array.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import Layout, ShardSpec, SmartSsdSpec
from repro.workloads import (
    generate_lineitem,
    generate_part,
    lineitem_schema,
    part_schema,
    q6_query,
    q14_query,
)

RUN_SCALE = 0.02  # 120,000 LINEITEM rows


def run(query, device_count: int, lineitem, part):
    with repro.connect() as session:
        names = [f"smart-ssd-{i}" for i in range(device_count)]
        for name in names:
            session.db.create_smart_ssd(SmartSsdSpec(name=name))
        session.create_sharded_table("lineitem", lineitem_schema(),
                                     Layout.PAX, lineitem, names,
                                     spec=ShardSpec(kind="round_robin"))
        # Dimension tables are replicated so each worker joins locally,
        # exactly like a broadcast join in a parallel DBMS.
        session.create_sharded_table("part", part_schema(), Layout.PAX,
                                     part, names,
                                     spec=ShardSpec(kind="replicated"))
        session.submit(query, tenant="coordinator")
        (report,) = session.gather()
        return report


def main() -> None:
    lineitem = generate_lineitem(RUN_SCALE)
    part = generate_part(RUN_SCALE)
    for query in (q6_query(), q14_query()):
        print(f"--- {query.name} across the array ---")
        baseline = None
        for count in (1, 2, 4, 8):
            result = run(query, count, lineitem, part)
            if baseline is None:
                baseline = result.elapsed_seconds
            print(f"  {count} device(s): {result.elapsed_seconds * 1e3:8.2f} ms "
                  f"(scaling {baseline / result.elapsed_seconds:4.2f}x)  "
                  f"result={result.rows[0]}")
        print()
    print("the host never touches a heap page: each worker runs the scan/"
          "join/aggregate locally and ships only partial aggregates")


if __name__ == "__main__":
    main()
