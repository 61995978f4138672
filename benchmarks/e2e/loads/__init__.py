"""The five workloads, by name, in the order the suite runs them."""

from loads.ftl_churn import FtlChurn
from loads.host_join import HostJoin
from loads.htap_mixed import HtapMixed
from loads.scan_pushdown import ScanPushdown
from loads.serve_replay import ServeReplay

WORKLOADS = {cls.name: cls for cls in (ScanPushdown, HostJoin, ServeReplay,
                                       HtapMixed, FtlChurn)}
