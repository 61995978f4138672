"""repro — a functional reproduction of "Query Processing on Smart SSDs:
Opportunities and Challenges" (Do, Kee, Patel, Park, Park, DeWitt — SIGMOD
2013).

The package simulates the paper's entire stack in Python:

* a byte-accurate SSD (NAND array, FTL, flash controller with the shared
  DRAM bus, host interface) and an HDD baseline — :mod:`repro.flash`;
* the Smart SSD runtime and OPEN/GET/CLOSE protocol with device-resident
  scan / aggregate / hash-join programs — :mod:`repro.smart`;
* a miniature host DBMS (catalog, buffer pool, planner, cost-based
  pushdown optimizer) — :mod:`repro.host`;
* placement-neutral query kernels and expressions — :mod:`repro.engine`;
* NSM and PAX page layouts — :mod:`repro.storage`;
* the calibrated timing/energy model — :mod:`repro.model`;
* TPC-H (Q6/Q14) and Synthetic64 workloads — :mod:`repro.workloads`;
* per-figure/table benchmark harnesses — :mod:`repro.bench`.

Quick taste::

    import repro
    from repro.workloads import generate_lineitem, lineitem_schema, q6_query

    session = repro.connect()
    session.db.create_smart_ssd()
    session.create_table("lineitem", lineitem_schema(), repro.Layout.PAX,
                         generate_lineitem(0.01), "smart-ssd")
    report = session.execute(q6_query(), placement=repro.Placement.SMART)
    print(report.summary())

Observability (spans, metrics, chrome-trace export) lives in
:mod:`repro.obs`; pass ``observability=True`` to :func:`repro.connect`.
"""

from repro.api import Session, connect
from repro.host.catalog import ShardSpec
from repro.serve import (
    Frontend,
    QueryHandle,
    ServeConfig,
    TenantBatch,
    TenantSpec,
)
from repro.engine import (
    Add,
    AggSpec,
    And,
    CaseWhen,
    Col,
    Compare,
    Const,
    Div,
    Expr,
    JoinSpec,
    LikePrefix,
    Mul,
    Or,
    Placement,
    Query,
    Sub,
    and_all,
    run_reference,
)
from repro.errors import (
    AdmissionRejected,
    ReproError,
    ServingError,
    ShardUnavailable,
)
from repro.host.db import Database, DatabaseConfig
from repro.model import ExecutionReport
from repro.sched import AdmissionPolicy, QueryScheduler, SchedulerConfig
from repro.smart.device import SmartSsd, SmartSsdSpec
from repro.storage import Column, Layout, Schema
from repro.storage.types import (
    CharType,
    DateType,
    DecimalType,
    Int32Type,
    Int64Type,
)

__version__ = "1.0.0"

__all__ = [
    "Add",
    "AdmissionPolicy",
    "AdmissionRejected",
    "AggSpec",
    "And",
    "CaseWhen",
    "CharType",
    "Col",
    "Column",
    "Compare",
    "Const",
    "Database",
    "DatabaseConfig",
    "DateType",
    "DecimalType",
    "Div",
    "ExecutionReport",
    "Expr",
    "Frontend",
    "Int32Type",
    "Int64Type",
    "JoinSpec",
    "Layout",
    "LikePrefix",
    "Mul",
    "Or",
    "Placement",
    "Query",
    "QueryHandle",
    "QueryScheduler",
    "ReproError",
    "Schema",
    "SchedulerConfig",
    "ServeConfig",
    "ServingError",
    "Session",
    "ShardSpec",
    "ShardUnavailable",
    "SmartSsd",
    "SmartSsdSpec",
    "Sub",
    "TenantBatch",
    "TenantSpec",
    "and_all",
    "connect",
    "run_reference",
    "__version__",
]
