"""repro.experiments subpackage: the paper's evaluation, runnable.

``figures`` has one ``run_*`` per paper exhibit, ``ablations`` the
design ablations and extensions, ``runner`` the cached per-point
simulator (memory -> disk -> simulate, or only recording which points
an exhibit requests), ``store`` the persistent
content-addressed result store, ``pool`` the fault-isolated campaign
executor, and ``report`` the all-in-one markdown generator
(``python -m repro.experiments.report``).
"""

from repro.experiments.pool import (
    CampaignInterrupted,
    CampaignSummary,
    PointFailure,
    run_campaign,
)
from repro.experiments.runner import (
    PointFailedError,
    clear_cache,
    point_signature,
    run_point,
    set_store,
)
from repro.experiments.store import ResultStore

__all__ = [
    "CampaignInterrupted",
    "CampaignSummary",
    "PointFailedError",
    "PointFailure",
    "ResultStore",
    "clear_cache",
    "point_signature",
    "run_campaign",
    "run_point",
    "set_store",
]
